package emss

import (
	"math"
	"slices"
	"testing"

	"mcauth/internal/depgraph"
)

// The paper's independence recurrence (Equations 8-9,
// depgraph.Graph.Recurrence) on the graph E_{m,d} emits, in the paper's
// reversed indexing.

func emssGraph(t *testing.T, n, m, d int) *depgraph.Graph {
	t.Helper()
	g, err := Config{N: n, M: m, D: d}.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// emssQ is the recurrence on the emitted E_{m,d} graph, re-indexed like the
// paper: the signature packet, sent last, becomes index 1.
func emssQ(t *testing.T, n, m, d int, p float64) depgraph.AuthResult {
	t.Helper()
	res, err := emssGraph(t, n, m, d).Recurrence(p)
	if err != nil {
		t.Fatal(err)
	}
	slices.Reverse(res.Q[1:])
	return res
}

func TestEMSSOffsets(t *testing.T) {
	// P_i relies on the packets d, 2d, ..., md nearer the signature: in send
	// order, packet s's hash rides in s+4, s+8 and s+12.
	g := emssGraph(t, 100, 3, 4)
	if got, want := g.InNeighbors(10), []int{14, 18, 22}; !slices.Equal(got, want) {
		t.Fatalf("carriers of packet 10 = %v, want %v", got, want)
	}
}

func TestEMSSValidation(t *testing.T) {
	for _, c := range []Config{
		{N: 100, M: 0, D: 1},
		{N: 100, M: 2, D: 0},
		{N: 10, M: 5, D: 2}, // m*d >= n
		{N: 0, M: 1, D: 1},  // bad n
	} {
		if _, err := c.Graph(); err == nil {
			t.Errorf("config %+v should fail", c)
		}
	}
	if _, err := emssGraph(t, 100, 2, 1).Recurrence(-1); err == nil {
		t.Error("p = -1 should fail")
	}
}

func TestEMSSE21MatchesExplicitRecurrence(t *testing.T) {
	// Hand-roll Equation (8) and compare.
	n, p := 50, 0.3
	res := emssQ(t, n, 2, 1, p)
	q := make([]float64, n+1)
	q[1], q[2], q[3] = 1, 1, 1
	for i := 4; i <= n; i++ {
		q[i] = 1 - (1-(1-p)*q[i-1])*(1-(1-p)*q[i-2])
	}
	for i := 1; i <= n; i++ {
		if math.Abs(res.Q[i]-q[i]) > 1e-12 {
			t.Errorf("Q[%d] = %v, want %v", i, res.Q[i], q[i])
		}
	}
}

func TestEMSSLevelsOffInM(t *testing.T) {
	// Paper, Figure 7: performance levels off once m exceeds 2-4.
	// (At p = 0.5 the E_{2,1} fixed point is exactly 0, so use p = 0.3
	// where the leveling is visible.)
	p := 0.3
	qmins := make([]float64, 0, 6)
	for m := 1; m <= 6; m++ {
		qmins = append(qmins, emssQ(t, 1000, m, 1, p).QMin)
	}
	// Monotone in m.
	for i := 1; i < len(qmins); i++ {
		if qmins[i] < qmins[i-1]-1e-9 {
			t.Errorf("QMin decreased with m: %v", qmins)
		}
	}
	// Big jump from m=1 to m=2, small from m=4 to m=6.
	jump12 := qmins[1] - qmins[0]
	jump46 := qmins[5] - qmins[3]
	if jump12 < 10*jump46 {
		t.Errorf("expected leveling off: jump m1->m2 = %v, m4->m6 = %v", jump12, jump46)
	}
}

func TestEMSSInsensitiveToD(t *testing.T) {
	// Paper, Figure 7: q_min is much less sensitive to d than to m as
	// long as the change in d stays below ~20%% of n.
	p := 0.3
	base := emssQ(t, 1000, 2, 1, p).QMin
	spread := emssQ(t, 1000, 2, 20, p).QMin
	if math.Abs(spread-base) > 0.05 {
		t.Errorf("d=1 vs d=20 QMin moved too much: %v vs %v", base, spread)
	}
}

func TestEMSSFixedPointClosedFormE21(t *testing.T) {
	// The large-n limit q* of E_{2,1} is the greatest solution of
	// q = 1 - (1 - (1-p)q)^2, which iteration from 1 reaches since the map
	// is monotone on [0,1]; it has the closed form (1-2p)/(1-p)^2.
	for _, p := range []float64{0.1, 0.2, 0.3, 0.4} {
		fp := 1.0
		for range 10000 {
			fp = 1 - math.Pow(1-(1-p)*fp, 2)
		}
		want := (1 - 2*p) / ((1 - p) * (1 - p))
		if math.Abs(fp-want) > 1e-9 {
			t.Errorf("p=%v: fixed point %v, want %v", p, fp, want)
		}
		// The deep-block q_min approaches the fixed point.
		if qmin := emssQ(t, 1000, 2, 1, p).QMin; math.Abs(qmin-fp) > 1e-6 {
			t.Errorf("p=%v: QMin %v far from fixed point %v", p, qmin, fp)
		}
	}
}

func TestEMSSClosedFormLowerBound(t *testing.T) {
	// The paper's closed-form lower bound for E_{2,1}: q_min >= 1 - p/(1-p),
	// informative for p < 1/2.
	for _, p := range []float64{0.05, 0.1, 0.2, 0.3, 0.45} {
		bound := 1 - p/(1-p)
		if qmin := emssQ(t, 1000, 2, 1, p).QMin; qmin < bound-1e-9 {
			t.Errorf("p=%v: QMin %v below paper bound %v", p, qmin, bound)
		}
	}
}
