package experiments

import (
	"fmt"
	"io"
	"slices"

	"mcauth/internal/crypto"
	"mcauth/internal/depgraph"
	"mcauth/internal/parallel"
	"mcauth/internal/scheme"
	"mcauth/internal/scheme/augchain"
	"mcauth/internal/scheme/authtree"
	"mcauth/internal/scheme/emss"
	"mcauth/internal/scheme/rohatgi"
	"mcauth/internal/scheme/tesla"
)

// TESLA comparison parameters for Figures 8-9: a disclosure delay chosen
// "sufficiently large" relative to the network (T_disc = 1 s, mu = 0.5 s,
// sigma = 0.2 s), per the paper's discussion.
const (
	cmpTDisc = 1.0
	cmpMu    = 0.5
	cmpSigma = 0.2
)

// contender is one of the Figure 8 schemes with the formula the paper plots
// for it: the Section 4 recurrence on the scheme's dependence graph — exact
// on a path or a star, and not the exact evaluator the simulation tools
// prefer — or, for TESLA, Equation 7.
type contender struct {
	name  string
	graph func(n int) (*depgraph.Graph, error)
	qmin  func(p float64) (float64, error) // Equation 7, where graph is nil
}

// qmins evaluates c at block size n and every loss rate in ps, building a
// graph once.
func (c contender) qmins(n int, ps []float64) ([]float64, error) {
	if c.graph != nil {
		g, err := c.graph(n)
		if err != nil {
			return nil, err
		}
		return recurrenceQMins(g, ps)
	}
	out := make([]float64, len(ps))
	for i, p := range ps {
		q, err := c.qmin(p)
		if err != nil {
			return nil, err
		}
		out[i] = q
	}
	return out, nil
}

// signedGraph is the graph of a scheme whose constructor takes a signer;
// the graph does not depend on the key.
func signedGraph[S scheme.Scheme](build func(int, crypto.Signer) (S, error)) func(int) (*depgraph.Graph, error) {
	return func(n int) (*depgraph.Graph, error) {
		s, err := build(n, crypto.NewSignerFromString("fig8"))
		if err != nil {
			return nil, err
		}
		return s.Graph()
	}
}

// teslaQMin is Equation 7 at the comparison's disclosure and delay.
func teslaQMin(p float64) (float64, error) { return tesla.QMin(p, cmpTDisc, cmpMu, cmpSigma) }

// comparison is the Figure 8 contenders, in plot order.
var comparison = []contender{
	{name: "rohatgi", graph: signedGraph(rohatgi.New)},
	{name: "authtree", graph: signedGraph(authtree.New)},
	{name: "emss(E21)", graph: func(n int) (*depgraph.Graph, error) {
		return emss.Config{N: n, M: 2, D: 1}.Graph()
	}},
	{name: "ac(C33)", graph: func(n int) (*depgraph.Graph, error) {
		// Align the block to a chain boundary (see augchain.AlignN).
		return augchain.Config{N: augchain.AlignN(n, 3), A: 3, B: 3}.Graph()
	}},
	{name: "tesla", qmin: teslaQMin},
}

// contenderNamed looks a Figure 8 contender up by name.
func contenderNamed(name string) (contender, error) {
	for _, c := range comparison {
		if c.name == name {
			return c, nil
		}
	}
	return contender{}, fmt.Errorf("experiments: unknown scheme %q", name)
}

// fig8Row is one point of the scheme comparison.
type fig8Row struct {
	Scheme string
	P      float64
	N      int
	QMin   float64
}

// fig8Sweep evaluates every contender at every block size in ns and loss
// rate in ps, one (contender, n) cell per worker-pool task: cells[k][i] is
// the k-th cell, contender-major, at ps[i].
func fig8Sweep(contenders []contender, ns []int, ps []float64) ([][]fig8Row, error) {
	type cell struct {
		c contender
		n int
	}
	var cells []cell
	for _, c := range contenders {
		for _, n := range ns {
			cells = append(cells, cell{c, n})
		}
	}
	return parallel.Map(Workers, cells, func(_ int, cl cell) ([]fig8Row, error) {
		qs, err := cl.c.qmins(cl.n, ps)
		if err != nil {
			return nil, err
		}
		rows := make([]fig8Row, len(ps))
		for i, p := range ps {
			rows[i] = fig8Row{Scheme: cl.c.name, P: p, N: cl.n, QMin: qs[i]}
		}
		return rows, nil
	})
}

// fig8aSeries sweeps loss rate at n = 1000.
func fig8aSeries() ([]fig8Row, error) {
	cells, err := fig8Sweep(comparison, []int{1000}, []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9})
	return slices.Concat(cells...), err
}

// fig8bSeries sweeps block size at p = 0.1.
func fig8bSeries() ([]fig8Row, error) {
	cells, err := fig8Sweep(comparison, []int{100, 200, 500, 1000, 2000}, []float64{0.1})
	return slices.Concat(cells...), err
}

func fig8Experiment() Experiment {
	e := Experiment{
		ID:    "fig8",
		Title: "q_min comparison: Rohatgi / AuthTree / EMSS E_{2,1} / AC C_{3,3} / TESLA vs (a) p, (b) n",
		Expectation: "Rohatgi collapses; AuthTree pinned at 1; EMSS ≈ AC; TESLA wins at high p " +
			"(given ample T_disc) but pays its timing factor at low p",
	}
	e.Run = func(w io.Writer) error {
		if err := banner(w, e); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w, "(a) q_min vs loss rate p at n=1000"); err != nil {
			return err
		}
		rowsA, err := fig8aSeries()
		if err != nil {
			return err
		}
		t := newTable(w, "scheme", "p", "q_min")
		for _, r := range rowsA {
			t.row(r.Scheme, f3(r.P), f3(r.QMin))
		}
		if err := t.flush(); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w, "\n(b) q_min vs block size n at p=0.1"); err != nil {
			return err
		}
		rowsB, err := fig8bSeries()
		if err != nil {
			return err
		}
		t = newTable(w, "scheme", "n", "q_min")
		for _, r := range rowsB {
			t.row(r.Scheme, itoa(r.N), f3(r.QMin))
		}
		return t.flush()
	}
	return e
}

// fig9Series takes a closer look at EMSS/AC/TESLA across n at p = 0.1 and
// p = 0.5.
func fig9Series() ([]fig8Row, error) {
	var contenders []contender
	for _, name := range []string{"emss(E21)", "ac(C33)", "tesla"} {
		c, err := contenderNamed(name)
		if err != nil {
			return nil, err
		}
		contenders = append(contenders, c)
	}
	ps := []float64{0.1, 0.5}
	cells, err := fig8Sweep(contenders, []int{200, 500, 1000, 2000, 5000}, ps)
	if err != nil {
		return nil, err
	}
	var rows []fig8Row
	for i := range ps {
		for _, cell := range cells {
			rows = append(rows, cell[i])
		}
	}
	return rows, nil
}

func fig9Experiment() Experiment {
	e := Experiment{
		ID:    "fig9",
		Title: "Close-up: EMSS E_{2,1} / AC C_{3,3} / TESLA q_min vs n at p=0.1 and p=0.5",
		Expectation: "EMSS and AC track each other closely and vary little with n; " +
			"TESLA is flat in n and dominates at p=0.5",
	}
	e.Run = func(w io.Writer) error {
		if err := banner(w, e); err != nil {
			return err
		}
		rows, err := fig9Series()
		if err != nil {
			return err
		}
		t := newTable(w, "p", "scheme", "n", "q_min")
		for _, r := range rows {
			t.row(f3(r.P), r.Scheme, itoa(r.N), f3(r.QMin))
		}
		return t.flush()
	}
	return e
}
