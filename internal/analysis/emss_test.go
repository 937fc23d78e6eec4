package analysis

import (
	"math"
	"testing"
)

func TestEMSSOffsets(t *testing.T) {
	c := EMSS{N: 100, M: 3, D: 4, P: 0.1}
	got := c.Offsets()
	want := []int{4, 8, 12}
	if len(got) != len(want) {
		t.Fatalf("Offsets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Offsets = %v, want %v", got, want)
		}
	}
}

func TestEMSSValidation(t *testing.T) {
	cases := []EMSS{
		{N: 100, M: 0, D: 1, P: 0.1},
		{N: 100, M: 2, D: 0, P: 0.1},
		{N: 10, M: 5, D: 2, P: 0.1}, // m*d >= n
		{N: 100, M: 2, D: 1, P: -1}, // bad p
		{N: 0, M: 1, D: 1, P: 0.1},  // bad n
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should fail", c)
		}
	}
}

func TestEMSSE21MatchesExplicitRecurrence(t *testing.T) {
	// Hand-roll Equation (8) and compare.
	n, p := 50, 0.3
	res, err := EMSS{N: n, M: 2, D: 1, P: p}.Q()
	if err != nil {
		t.Fatal(err)
	}
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
		qmin, err := EMSS{N: 1000, M: m, D: 1, P: p}.QMin()
		if err != nil {
			t.Fatal(err)
		}
		qmins = append(qmins, qmin)
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
	base, err := EMSS{N: 1000, M: 2, D: 1, P: p}.QMin()
	if err != nil {
		t.Fatal(err)
	}
	spread, err := EMSS{N: 1000, M: 2, D: 20, P: p}.QMin()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(spread-base) > 0.05 {
		t.Errorf("d=1 vs d=20 QMin moved too much: %v vs %v", base, spread)
	}
}

func TestEMSSFixedPointClosedFormE21(t *testing.T) {
	for _, p := range []float64{0.1, 0.2, 0.3, 0.4} {
		fp, err := EMSS{N: 1000, M: 2, D: 1, P: p}.FixedPoint()
		if err != nil {
			t.Fatal(err)
		}
		want := (1 - 2*p) / ((1 - p) * (1 - p))
		if math.Abs(fp-want) > 1e-9 {
			t.Errorf("p=%v: fixed point %v, want %v", p, fp, want)
		}
		// The deep-block q_min approaches the fixed point.
		qmin, err := EMSS{N: 1000, M: 2, D: 1, P: p}.QMin()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(qmin-fp) > 1e-6 {
			t.Errorf("p=%v: QMin %v far from fixed point %v", p, qmin, fp)
		}
	}
}

func TestEMSSClosedFormLowerBound(t *testing.T) {
	for _, p := range []float64{0.05, 0.1, 0.2, 0.3, 0.45} {
		bound := closedFormLowerBoundE21(p)
		qmin, err := EMSS{N: 1000, M: 2, D: 1, P: p}.QMin()
		if err != nil {
			t.Fatal(err)
		}
		if qmin < bound-1e-9 {
			t.Errorf("p=%v: QMin %v below paper bound %v", p, qmin, bound)
		}
	}
	if closedFormLowerBoundE21(0.6) != 0 {
		t.Error("bound should clamp to 0 for p > 1/2")
	}
	if closedFormLowerBoundE21(1) != 0 {
		t.Error("bound at p=1 should be 0")
	}
}
