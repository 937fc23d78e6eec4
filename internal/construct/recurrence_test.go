package construct

import (
	"fmt"
	"math"
	"testing"

	"mcauth/internal/analysis"
	"mcauth/internal/crypto"
	"mcauth/internal/depgraph"
	"mcauth/internal/scheme/augchain"
	"mcauth/internal/scheme/emss"
)

// The paper's recurrences (internal/analysis) against the graphs the
// schemes emit: on every parameter set the figures evaluate, Equations (9)
// and (10) must be the independence recurrence approxQ runs on emss.New's
// and augchain.New's dependence graph, packet for packet.

// recurrenceCase is one topology and the loss rates evaluated on it.
type recurrenceCase struct {
	emss *analysis.EMSS     // P unset
	aug  *analysis.AugChain // P unset
	ps   []float64
}

func (c recurrenceCase) String() string {
	if c.emss != nil {
		return fmt.Sprintf("E_{%d,%d} n=%d", c.emss.M, c.emss.D, c.emss.N)
	}
	return fmt.Sprintf("C_{%d,%d} n=%d", c.aug.A, c.aug.B, c.aug.N)
}

// graph builds the runnable scheme's dependence graph.
func (c recurrenceCase) graph(t *testing.T) *depgraph.Graph {
	t.Helper()
	signer := crypto.NewSignerFromString("recurrence")
	var (
		g   *depgraph.Graph
		err error
	)
	if c.emss != nil {
		s, err := emss.New(emss.Config{N: c.emss.N, M: c.emss.M, D: c.emss.D}, signer)
		if err != nil {
			t.Fatal(err)
		}
		g, err = s.Graph()
	} else {
		s, err := augchain.New(augchain.Config{N: c.aug.N, A: c.aug.A, B: c.aug.B}, signer)
		if err != nil {
			t.Fatal(err)
		}
		g, err = s.Graph()
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// recurrence evaluates the paper's recurrence at loss rate p.
func (c recurrenceCase) recurrence(t *testing.T, p float64) analysis.Result {
	t.Helper()
	var (
		res analysis.Result
		err error
	)
	if c.emss != nil {
		e := *c.emss
		e.P = p
		res, err = e.Q()
	} else {
		a := *c.aug
		a.P = p
		res, err = a.Q()
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// figureRecurrenceCases lists, topology by topology, every EMSS and
// augmented-chain recurrence the figures evaluate (fig5, fig6, fig7, fig8
// a/b, fig9, tradeoff, markovgap), then unaligned block sizes at a = 1, 2, 3.
func figureRecurrenceCases() []recurrenceCase {
	byKey := map[string]int{}
	var cases []recurrenceCase
	add := func(c recurrenceCase, ps ...float64) {
		key := c.String()
		if i, ok := byKey[key]; ok {
			cases[i].ps = append(cases[i].ps, ps...)
			return
		}
		byKey[key] = len(cases)
		c.ps = ps
		cases = append(cases, c)
	}
	addEMSS := func(n, m, d int, ps ...float64) {
		add(recurrenceCase{emss: &analysis.EMSS{N: n, M: m, D: d}}, ps...)
	}
	addAug := func(n, a, b int, ps ...float64) {
		add(recurrenceCase{aug: &analysis.AugChain{N: n, A: a, B: b}}, ps...)
	}
	for _, a := range []int{1, 2, 3, 5, 8} { // fig5
		for _, b := range []int{1, 2, 3, 5, 8} {
			addAug(analysis.AlignN(1000, b), a, b, 0.1, 0.3, 0.5)
		}
	}
	for _, b := range []int{1, 2, 4, 8, 16} { // fig6
		addAug(analysis.NForLevel1Length(200, b), 3, b, 0.1, 0.3, 0.5)
	}
	for _, m := range []int{1, 2, 3, 4, 5, 6} { // fig7
		for _, d := range []int{1, 5, 10, 50, 100, 200} {
			if m*d < 1000 {
				addEMSS(1000, m, d, 0.1, 0.3, 0.5)
			}
		}
	}
	fig8a := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	addEMSS(1000, 2, 1, fig8a...)
	addAug(analysis.AlignN(1000, 3), 3, 3, fig8a...)
	for _, n := range []int{100, 200, 500, 1000, 2000} { // fig8b
		addEMSS(n, 2, 1, 0.1)
		addAug(analysis.AlignN(n, 3), 3, 3, 0.1)
	}
	for _, n := range []int{200, 500, 1000, 2000, 5000} { // fig9
		addEMSS(n, 2, 1, 0.1, 0.5)
		addAug(analysis.AlignN(n, 3), 3, 3, 0.1, 0.5)
	}
	for m := 1; m <= 6; m++ { // tradeoff
		addEMSS(1000, m, 1, 0.3)
	}
	for _, d := range []int{1, 5, 20, 100, 300} {
		addEMSS(1000, 2, d, 0.3)
	}
	for _, n := range []int{50, 100, 200, 500, 1000} { // markovgap
		addEMSS(n, 2, 1, 0.1, 0.3)
		addAug(analysis.AlignN(n, 2), 3, 2, 0.1, 0.3)
	}
	for _, n := range []int{97, 250, 1001} { // unaligned
		for _, a := range []int{1, 2, 3} {
			for _, b := range []int{2, 3, 5} {
				addAug(n, a, b, 0.1, 0.3, 0.5)
			}
		}
		addEMSS(n, 3, 7, 0.1, 0.3, 0.5)
	}
	return cases
}

// TestRecurrencesMatchEmittedGraphs: per packet and in q_min, the paper's
// recurrences equal the independence recurrence on the emitted graph to
// 1e-12, with one recorded exception. The augmented-chain recurrence
// multiplies segment 0's inserted packets by the factor 1-(1-p)·q(0,0) for
// their link to the signature packet, as if it could be lost; the graph
// recurrence, like every evaluator here, takes the signature packet as
// received, so there that factor is 0 and those packets have q = 1. The
// recurrence is the lower of the two on exactly those packets, and only
// tiny blocks, where segment 0 holds the minimum, see it in q_min.
func TestRecurrencesMatchEmittedGraphs(t *testing.T) {
	const tol = 1e-12
	for _, c := range figureRecurrenceCases() {
		g := c.graph(t)
		n := g.N()
		for _, p := range c.ps {
			approx, err := approxQ(g, p)
			if err != nil {
				t.Fatal(err)
			}
			rec := c.recurrence(t, p)
			graphMin := 1.0
			for rev := 1; rev <= n; rev++ {
				send := n + 1 - rev
				graphMin = min(graphMin, approx[send])
				want := approx[send]
				if c.aug != nil && rev >= 2 && rev <= c.aug.B+1 {
					if rec.Q[rev] > want+tol {
						t.Errorf("%v p=%v: reversed %d (segment 0): recurrence %v above graph %v", c, p, rev, rec.Q[rev], want)
					}
					continue
				}
				if math.Abs(rec.Q[rev]-want) > tol {
					t.Fatalf("%v p=%v: reversed %d: recurrence %v, graph %v", c, p, rev, rec.Q[rev], want)
				}
			}
			if math.Abs(rec.QMin-graphMin) > tol {
				t.Errorf("%v p=%v: recurrence q_min %v, graph q_min %v", c, p, rec.QMin, graphMin)
			}
		}
	}
}

// TestRecurrenceSegmentZeroGap pins the recorded exception on a block small
// enough for it to set q_min: C_{a,3} at n = 5 is the signature packet, its
// three inserted packets and one chain packet.
func TestRecurrenceSegmentZeroGap(t *testing.T) {
	const p = 0.3
	c := recurrenceCase{aug: &analysis.AugChain{N: 5, A: 1, B: 3}}
	approx, err := approxQ(c.graph(t), p)
	if err != nil {
		t.Fatal(err)
	}
	graphMin := 1.0
	for v := 1; v < 5; v++ { // vertex 5 is the signature packet
		graphMin = min(graphMin, approx[v])
	}
	rec := c.recurrence(t, p).QMin
	if graphMin != 1 || math.Abs(rec-0.887) > 5e-4 {
		t.Errorf("C_{1,3} n=5: recurrence q_min %v, graph %v; want 0.887 and 1", rec, graphMin)
	}
}
