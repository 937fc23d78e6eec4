package experiments

import (
	"io"

	"mcauth/internal/analysis"
	"mcauth/internal/parallel"
)

// fig5Row is one point of the augmented-chain parameter sweep.
type fig5Row struct {
	P    float64
	A    int
	B    int
	QMin float64
}

// fig5Series computes C_{a,b} q_min over (a, b) at fixed n = 1000,
// evaluating the sweep points on the worker pool.
func fig5Series() ([]fig5Row, error) {
	as := []int{1, 2, 3, 5, 8}
	bs := []int{1, 2, 3, 5, 8}
	ps := []float64{0.1, 0.3, 0.5}
	points := make([]fig5Row, 0, len(as)*len(bs)*len(ps))
	for _, p := range ps {
		for _, a := range as {
			for _, b := range bs {
				points = append(points, fig5Row{P: p, A: a, B: b})
			}
		}
	}
	return parallel.Map(Workers, points, func(_ int, pt fig5Row) (fig5Row, error) {
		qmin, err := analysis.AugChain{N: analysis.AlignN(1000, pt.B), A: pt.A, B: pt.B, P: pt.P}.QMin()
		if err != nil {
			return fig5Row{}, err
		}
		pt.QMin = qmin
		return pt, nil
	})
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
// constant, evaluating the sweep points on the worker pool.
func fig6Series() ([]fig6Row, error) {
	bs := []int{1, 2, 4, 8, 16}
	ps := []float64{0.1, 0.3, 0.5}
	points := make([]fig6Row, 0, len(bs)*len(ps))
	for _, p := range ps {
		for _, b := range bs {
			points = append(points, fig6Row{P: p, B: b, N: analysis.NForLevel1Length(fig6Level1, b)})
		}
	}
	return parallel.Map(Workers, points, func(_ int, pt fig6Row) (fig6Row, error) {
		qmin, err := analysis.AugChain{N: pt.N, A: 3, B: pt.B, P: pt.P}.QMin()
		if err != nil {
			return fig6Row{}, err
		}
		pt.QMin = qmin
		return pt, nil
	})
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

// fig7Series computes E_{m,d} q_min over (m, d) at n = 1000, evaluating
// the sweep points on the worker pool.
func fig7Series() ([]fig7Row, error) {
	ms := []int{1, 2, 3, 4, 5, 6}
	ds := []int{1, 5, 10, 50, 100, 200}
	ps := []float64{0.1, 0.3, 0.5}
	var points []fig7Row
	for _, p := range ps {
		for _, m := range ms {
			for _, d := range ds {
				if m*d >= 1000 {
					continue
				}
				points = append(points, fig7Row{P: p, M: m, D: d})
			}
		}
	}
	return parallel.Map(Workers, points, func(_ int, pt fig7Row) (fig7Row, error) {
		qmin, err := analysis.EMSS{N: 1000, M: pt.M, D: pt.D, P: pt.P}.QMin()
		if err != nil {
			return fig7Row{}, err
		}
		pt.QMin = qmin
		return pt, nil
	})
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
