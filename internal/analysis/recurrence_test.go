package analysis_test

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"mcauth/internal/analysis"
	"mcauth/internal/depgraph"
	"mcauth/internal/scheme/augchain"
	"mcauth/internal/scheme/emss"
)

// The paper's independence recurrence (Equations 8-10) is
// depgraph.Graph.Recurrence; these tests pin its analytic properties on the
// periodic topologies of Equation (9) and on the graphs the E_{m,d} and
// C_{a,b} schemes emit, in the paper's reversed indexing.

// recurrence is g.Recurrence(p), failing the test on error.
func recurrence(t *testing.T, g *depgraph.Graph, p float64) depgraph.AuthResult {
	t.Helper()
	res, err := g.Recurrence(p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// reversed re-indexes res like the paper: the signature packet, sent last,
// becomes index 1.
func reversed(res depgraph.AuthResult) depgraph.AuthResult {
	slices.Reverse(res.Q[1:])
	return res
}

func emssGraph(t *testing.T, n, m, d int) *depgraph.Graph {
	t.Helper()
	g, err := emss.Config{N: n, M: m, D: d}.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func augGraph(t *testing.T, n, a, b int) *depgraph.Graph {
	t.Helper()
	g, err := augchain.Config{N: n, A: a, B: b}.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// emssQ and augQ are the recurrence on the emitted E_{m,d} and C_{a,b}
// graphs, reversed.
func emssQ(t *testing.T, n, m, d int, p float64) depgraph.AuthResult {
	t.Helper()
	return reversed(recurrence(t, emssGraph(t, n, m, d), p))
}

func augQ(t *testing.T, n, a, b int, p float64) depgraph.AuthResult {
	t.Helper()
	return reversed(recurrence(t, augGraph(t, n, a, b), p))
}

func TestPeriodicSingleOffsetEqualsRohatgi(t *testing.T) {
	// A = {1} is exactly the Rohatgi chain; the recurrence must reproduce
	// the closed form.
	n, p := 12, 0.3
	res := recurrence(t, periodicGraph(t, n, 1), p)
	closed, err := analysis.Rohatgi(n, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if math.Abs(res.Q[i]-closed.Q[i]) > 1e-12 {
			t.Errorf("Q[%d] = %v, closed form %v", i, res.Q[i], closed.Q[i])
		}
	}
}

func TestPeriodicE21InitialConditions(t *testing.T) {
	res := recurrence(t, periodicGraph(t, 10, 1, 2), 0.4)
	// Paper: q_1 = q_2 = q_3 = 1 for E_{2,1}.
	for i := 1; i <= 3; i++ {
		if res.Q[i] != 1 {
			t.Errorf("Q[%d] = %v, want 1", i, res.Q[i])
		}
	}
	// q_4 = 1 - [1-(1-p)q_3][1-(1-p)q_2] = 1 - p^2.
	want := 1 - 0.4*0.4
	if math.Abs(res.Q[4]-want) > 1e-12 {
		t.Errorf("Q[4] = %v, want %v", res.Q[4], want)
	}
	// The same boundary on the graph EMSS emits.
	rev := emssQ(t, 10, 2, 1, 0.4)
	for i := 1; i <= 3; i++ {
		if rev.Q[i] != 1 {
			t.Errorf("emitted E_{2,1}: Q[%d] = %v, want 1", i, rev.Q[i])
		}
	}
}

func TestPeriodicNoLoss(t *testing.T) {
	if q := recurrence(t, periodicGraph(t, 100, 1, 5), 0).QMin; q != 1 {
		t.Errorf("QMin with p=0 = %v, want 1", q)
	}
}

func TestPeriodicTotalLoss(t *testing.T) {
	// Beyond the boundary, nothing survives to carry hashes.
	if q := recurrence(t, periodicGraph(t, 10, 1, 2), 1).Q[5]; q != 0 {
		t.Errorf("Q[5] with p=1 = %v, want 0", q)
	}
}

func TestPeriodicValidation(t *testing.T) {
	// The offsets no topology has are edges no graph takes: offset 0 is a
	// self-loop, a repeated offset a duplicate edge; and the recurrence
	// takes only a loss rate in [0,1].
	for _, edges := range [][][2]int{
		{{5, 5}},
		{{4, 5}, {4, 5}},
		{{1, 11}},
		{{2, 1}},
	} {
		if _, err := depgraph.New(10, 1, edges...); err == nil {
			t.Errorf("edges %v accepted", edges)
		}
	}
	if _, err := depgraph.New(0, 1); err == nil {
		t.Error("n = 0 accepted")
	}
	g := periodicGraph(t, 10, 1)
	for _, p := range []float64{-0.1, 2, math.NaN()} {
		if _, err := g.Recurrence(p); err == nil {
			t.Errorf("loss rate %v accepted", p)
		}
	}
}

func TestPeriodicMonotoneInP(t *testing.T) {
	g := periodicGraph(t, 200, 1, 2)
	prev := 1.0
	for _, p := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		qmin := recurrence(t, g, p).QMin
		if qmin > prev+1e-12 {
			t.Errorf("QMin increased when p rose to %v: %v > %v", p, qmin, prev)
		}
		prev = qmin
	}
}

func TestPeriodicQDecreasesFromSignature(t *testing.T) {
	res := recurrence(t, periodicGraph(t, 100, 1, 2), 0.3)
	for i := 4; i <= 100; i++ {
		if res.Q[i] > res.Q[i-1]+1e-12 {
			t.Errorf("Q[%d]=%v > Q[%d]=%v: q must not increase away from the signature", i, res.Q[i], i-1, res.Q[i-1])
		}
	}
}

// requireBackwardOffsetRejected checks that the periodic topology with the
// given offsets, plus P_i relying on P_{i+back} wherever that packet exists,
// is refused as cyclic and evaluates to no vector.
func requireBackwardOffsetRejected(t *testing.T, n, back int, offsets ...int) {
	t.Helper()
	g := periodicGraph(t, n, offsets...)
	for i := 2; i+back <= n; i++ {
		if !g.HasEdge(i+back, i) {
			g.MustAddEdge(i+back, i)
		}
	}
	res, err := g.Recurrence(0.3)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("offsets %v and -%d: Recurrence = %v, want the cycle error", offsets, back, err)
	}
	if res.Q != nil {
		t.Errorf("offsets %v and -%d: a vector alongside the error", offsets, back)
	}
}

func TestPeriodicNegativeOffsetAddsRobustness(t *testing.T) {
	// A backward dependence (a packet also storing its hash in a packet
	// farther from the signature) closes a cycle with the forward offsets:
	// no hash chain builds it, so it adds no robustness and is rejected,
	// while the forward-only topology it extended still evaluates.
	recurrence(t, periodicGraph(t, 50, 1, 2), 0.3)
	requireBackwardOffsetRejected(t, 50, 3, 1, 2)
}

func TestPeriodicNegativeOffsetsConverge(t *testing.T) {
	// {1, -1} makes every adjacent pair mutually dependent. The recurrence
	// is a single forward pass with no fixed-point iteration, so it must
	// refuse the system outright rather than return a partial solution.
	requireBackwardOffsetRejected(t, 300, 1, 1)
}

// Property: q_i always stays within [0,1] for arbitrary valid offset sets.
func TestPeriodicRangeProperty(t *testing.T) {
	f := func(seed uint8, pRaw uint8) bool {
		p := float64(pRaw) / 255
		res, err := periodicGraph(t, 80, 1, int(seed%5)+2).Recurrence(p)
		if err != nil {
			return false
		}
		for i := 1; i <= 80; i++ {
			if res.Q[i] < 0 || res.Q[i] > 1 || math.IsNaN(res.Q[i]) {
				return false
			}
		}
		return res.QMin >= 0 && res.QMin <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
