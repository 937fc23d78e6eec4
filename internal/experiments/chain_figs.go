package experiments

import (
	"io"
	"slices"

	"mcauth/internal/depgraph"
	"mcauth/internal/parallel"
	"mcauth/internal/scheme/augchain"
	"mcauth/internal/scheme/emss"
)

// recurrenceGrid is the recurrence's q_min on each topology at every loss
// rate in ps: graph builds a topology once, on the worker pool, and
// grid[t][i] is topology t at ps[i].
func recurrenceGrid[T any](topologies []T, ps []float64, graph func(T) (*depgraph.Graph, error)) ([][]float64, error) {
	return parallel.Map(Workers, topologies, func(_ int, t T) ([]float64, error) {
		g, err := graph(t)
		if err != nil {
			return nil, err
		}
		return recurrenceQMins(g, ps)
	})
}

// recurrenceQMins is the recurrence's q_min on g at every loss rate in ps:
// Recurrence, with the graph's one topological order and one q vector
// reused across the loss rates.
func recurrenceQMins(g *depgraph.Graph, ps []float64) ([]float64, error) {
	order, err := g.TopoFromRoot()
	if err != nil {
		return nil, err
	}
	q := make([]float64, g.N()+1)
	out := make([]float64, len(ps))
	for i, p := range ps {
		g.RecurrenceInto(q, order, p)
		out[i] = slices.Min(q[1:])
	}
	return out, nil
}

// fig5Row is one point of the augmented-chain parameter sweep.
type fig5Row struct {
	P    float64
	A    int
	B    int
	QMin float64
}

// fig5Series computes C_{a,b} q_min over (a, b) at fixed n = 1000.
func fig5Series() ([]fig5Row, error) {
	ps := []float64{0.1, 0.3, 0.5}
	var cfgs []augchain.Config
	for _, a := range []int{1, 2, 3, 5, 8} {
		for _, b := range []int{1, 2, 3, 5, 8} {
			cfgs = append(cfgs, augchain.Config{N: augchain.AlignN(1000, b), A: a, B: b})
		}
	}
	grid, err := recurrenceGrid(cfgs, ps, augchain.Config.Graph)
	if err != nil {
		return nil, err
	}
	rows := make([]fig5Row, 0, len(cfgs)*len(ps))
	for i, p := range ps {
		for t, c := range cfgs {
			rows = append(rows, fig5Row{P: p, A: c.A, B: c.B, QMin: grid[t][i]})
		}
	}
	return rows, nil
}

func fig5Experiment() Experiment {
	e := Experiment{
		ID:          "fig5",
		Title:       "Augmented chain C_{a,b} q_min vs a and b at fixed block size n=1000",
		Expectation: "q_min drops when either a or b decreases (fixed n)",
	}
	e.Run = func(w io.Writer) error {
		if err := banner(w, e); err != nil {
			return err
		}
		rows, err := fig5Series()
		if err != nil {
			return err
		}
		t := newTable(w, "p", "a", "b", "q_min")
		for _, r := range rows {
			t.row(f3(r.P), itoa(r.A), itoa(r.B), f3(r.QMin))
		}
		return t.flush()
	}
	return e
}

// fig6Row is one point of the fixed-first-level sweep.
type fig6Row struct {
	P    float64
	B    int
	N    int
	QMin float64
}

// fig6Level1 fixes the number of first-level chain packets while b (and
// hence n) varies.
const fig6Level1 = 200

// fig6Series computes C_{3,b} q_min with the first-level length held
// constant.
func fig6Series() ([]fig6Row, error) {
	ps := []float64{0.1, 0.3, 0.5}
	var cfgs []augchain.Config
	for _, b := range []int{1, 2, 4, 8, 16} {
		cfgs = append(cfgs, augchain.Config{N: augchain.NForLevel1Length(fig6Level1, b), A: 3, B: b})
	}
	grid, err := recurrenceGrid(cfgs, ps, augchain.Config.Graph)
	if err != nil {
		return nil, err
	}
	rows := make([]fig6Row, 0, len(cfgs)*len(ps))
	for i, p := range ps {
		for t, c := range cfgs {
			rows = append(rows, fig6Row{P: p, B: c.B, N: c.N, QMin: grid[t][i]})
		}
	}
	return rows, nil
}

func fig6Experiment() Experiment {
	e := Experiment{
		ID:          "fig6",
		Title:       "Augmented chain q_min vs b with the first-level chain length fixed (n grows with b)",
		Expectation: "q_min is nearly insensitive to b: new packets can be inserted without degrading the scheme",
	}
	e.Run = func(w io.Writer) error {
		if err := banner(w, e); err != nil {
			return err
		}
		rows, err := fig6Series()
		if err != nil {
			return err
		}
		t := newTable(w, "p", "b", "n", "q_min")
		for _, r := range rows {
			t.row(f3(r.P), itoa(r.B), itoa(r.N), f3(r.QMin))
		}
		return t.flush()
	}
	return e
}

// fig7Row is one point of the EMSS parameter sweep.
type fig7Row struct {
	P    float64
	M    int
	D    int
	QMin float64
}

// fig7Series computes E_{m,d} q_min over (m, d) at n = 1000.
func fig7Series() ([]fig7Row, error) {
	ps := []float64{0.1, 0.3, 0.5}
	var cfgs []emss.Config
	for _, m := range []int{1, 2, 3, 4, 5, 6} {
		for _, d := range []int{1, 5, 10, 50, 100, 200} {
			if m*d < 1000 {
				cfgs = append(cfgs, emss.Config{N: 1000, M: m, D: d})
			}
		}
	}
	grid, err := recurrenceGrid(cfgs, ps, emss.Config.Graph)
	if err != nil {
		return nil, err
	}
	rows := make([]fig7Row, 0, len(cfgs)*len(ps))
	for i, p := range ps {
		for t, c := range cfgs {
			rows = append(rows, fig7Row{P: p, M: c.M, D: c.D, QMin: grid[t][i]})
		}
	}
	return rows, nil
}

func fig7Experiment() Experiment {
	e := Experiment{
		ID:    "fig7",
		Title: "EMSS E_{m,d} q_min vs m (hash copies) and d (spacing) at n=1000",
		Expectation: "q_min levels off once m exceeds 2-4; much less sensitive to d " +
			"until d approaches ~20% of n",
	}
	e.Run = func(w io.Writer) error {
		if err := banner(w, e); err != nil {
			return err
		}
		rows, err := fig7Series()
		if err != nil {
			return err
		}
		t := newTable(w, "p", "m", "d", "q_min")
		for _, r := range rows {
			t.row(f3(r.P), itoa(r.M), itoa(r.D), f3(r.QMin))
		}
		return t.flush()
	}
	return e
}
