package experiments

import (
	"fmt"
	"io"

	"mcauth/internal/analysis"
	"mcauth/internal/parallel"
)

// TESLA comparison parameters for Figures 8-9: a disclosure delay chosen
// "sufficiently large" relative to the network (T_disc = 1 s, mu = 0.5 s,
// sigma = 0.2 s), per the paper's discussion.
const (
	cmpTDisc = 1.0
	cmpMu    = 0.5
	cmpSigma = 0.2
)

// comparison is the Figure 8 contenders, in plot order, each with the
// formula the paper plots for it: the recurrences of Section 4, not the
// exact evaluator the simulation tools prefer.
var comparison = []struct {
	name string
	qmin func(n int, p float64) (float64, error)
}{
	{"rohatgi", func(n int, p float64) (float64, error) {
		res, err := analysis.Rohatgi(n, p)
		return res.QMin, err
	}},
	{"authtree", func(n int, p float64) (float64, error) {
		res, err := analysis.AuthTree(n, p)
		return res.QMin, err
	}},
	{"emss(E21)", func(n int, p float64) (float64, error) {
		return analysis.EMSS{N: n, M: 2, D: 1, P: p}.QMin()
	}},
	{"ac(C33)", func(n int, p float64) (float64, error) {
		// Align the block to a chain boundary (see analysis.AlignN).
		return analysis.AugChain{N: analysis.AlignN(n, 3), A: 3, B: 3, P: p}.QMin()
	}},
	{"tesla", func(n int, p float64) (float64, error) {
		return analysis.TESLA{N: n, P: p, TDisc: cmpTDisc, Mu: cmpMu, Sigma: cmpSigma}.QMin()
	}},
}

// schemeQMin evaluates one comparison scheme's analytic q_min.
func schemeQMin(name string, n int, p float64) (float64, error) {
	for _, c := range comparison {
		if c.name == name {
			return c.qmin(n, p)
		}
	}
	return 0, fmt.Errorf("experiments: unknown scheme %q", name)
}

// comparisonSchemes lists the Figure 8 contenders.
func comparisonSchemes() []string {
	out := make([]string, len(comparison))
	for i, c := range comparison {
		out[i] = c.name
	}
	return out
}

// fig8Row is one point of the scheme comparison.
type fig8Row struct {
	Scheme string
	P      float64
	N      int
	QMin   float64
}

// fig8Point is one (scheme, p, n) cell of a comparison sweep; the points
// are enumerated up front and evaluated on the worker pool.
type fig8Point struct {
	scheme string
	p      float64
	n      int
}

func fig8Sweep(points []fig8Point) ([]fig8Row, error) {
	return parallel.Map(Workers, points, func(_ int, pt fig8Point) (fig8Row, error) {
		qmin, err := schemeQMin(pt.scheme, pt.n, pt.p)
		if err != nil {
			return fig8Row{}, err
		}
		return fig8Row{Scheme: pt.scheme, P: pt.p, N: pt.n, QMin: qmin}, nil
	})
}

// fig8aSeries sweeps loss rate at n = 1000.
func fig8aSeries() ([]fig8Row, error) {
	ps := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	var points []fig8Point
	for _, name := range comparisonSchemes() {
		for _, p := range ps {
			points = append(points, fig8Point{scheme: name, p: p, n: 1000})
		}
	}
	return fig8Sweep(points)
}

// fig8bSeries sweeps block size at p = 0.1.
func fig8bSeries() ([]fig8Row, error) {
	ns := []int{100, 200, 500, 1000, 2000}
	var points []fig8Point
	for _, name := range comparisonSchemes() {
		for _, n := range ns {
			points = append(points, fig8Point{scheme: name, p: 0.1, n: n})
		}
	}
	return fig8Sweep(points)
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
	ns := []int{200, 500, 1000, 2000, 5000}
	schemes := []string{"emss(E21)", "ac(C33)", "tesla"}
	var points []fig8Point
	for _, p := range []float64{0.1, 0.5} {
		for _, name := range schemes {
			for _, n := range ns {
				points = append(points, fig8Point{scheme: name, p: p, n: n})
			}
		}
	}
	return fig8Sweep(points)
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
