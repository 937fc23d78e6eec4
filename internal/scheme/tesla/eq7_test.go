package tesla

import (
	"math"
	"testing"

	"mcauth/internal/scheme/emss"
	"mcauth/internal/stats"
)

// Equation (7), QMin, against its two factors and the paper's Section 3.2
// and Figure 8 observations.

// qmin is QMin, failing the test on error.
func qmin(t *testing.T, p, tDisc, mu, sigma float64) float64 {
	t.Helper()
	q, err := QMin(p, tDisc, mu, sigma)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// e21QMin is the recurrence's q_min on the graph EMSS E_{2,1} emits.
func e21QMin(t *testing.T, n int, p float64) float64 {
	t.Helper()
	g, err := emss.Config{N: n, M: 2, D: 1}.Graph()
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Recurrence(p)
	if err != nil {
		t.Fatal(err)
	}
	return res.QMin
}

func TestTESLAXi(t *testing.T) {
	// At p = 0 every key arrives, and q_min is the timing factor alone.
	want := stats.NormalCDF(1.0, 0.5, 0.25)
	if got := qmin(t, 0, 1.0, 0.5, 0.25); math.Abs(got-want) > 1e-12 {
		t.Errorf("ξ = %v, want %v", got, want)
	}
}

func TestTESLAQMinEquation7(t *testing.T) {
	want := 0.8 * stats.NormalCDF(1.0, 0.3, 0.1)
	if got := qmin(t, 0.2, 1.0, 0.3, 0.1); math.Abs(got-want) > 1e-12 {
		t.Errorf("QMin = %v, want %v", got, want)
	}
}

func TestTESLAQShape(t *testing.T) {
	// On the split-vertex graph the message part of data packet i verifies
	// iff one of the n+1-i keys disclosing K_i arrives: λ_i = 1 - p^(n+1-i),
	// which shrinks toward the end of the chain. Its least value, the last
	// packet's 1-p, times ξ is Equation (7).
	const n, p = 8, 0.3
	g, err := newScheme(t, testConfig(n, 1)).Graph()
	if err != nil {
		t.Fatal(err)
	}
	exact, err := g.ExactAuthProb(p)
	if err != nil {
		t.Fatal(err)
	}
	lambdaMin := 1.0
	for i := 1; i <= n; i++ {
		got := exact.Q[1+i] // message vertex
		if want := 1 - math.Pow(p, float64(n+1-i)); math.Abs(got-want) > 1e-12 {
			t.Errorf("λ_%d = %v, want %v", i, got, want)
		}
		if got > lambdaMin+1e-12 {
			t.Errorf("λ_%d = %v rose above λ_%d = %v", i, got, i-1, lambdaMin)
		}
		lambdaMin = got
	}
	xi := stats.NormalCDF(2.0, 0.5, 0.2)
	if got := qmin(t, p, 2.0, 0.5, 0.2); math.Abs(got-lambdaMin*xi) > 1e-12 {
		t.Errorf("QMin = %v, want λ_n·ξ = %v", got, lambdaMin*xi)
	}
}

func TestTESLARobustToLossWithAmpleDisclosure(t *testing.T) {
	// Paper: with TDisc >> mu, sigma, TESLA degrades only as (1-p).
	if got := qmin(t, 0.5, 10, 0.5, 0.1); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("QMin = %v, want ~0.5 = 1-p", got)
	}
}

func TestTESLACollapsesWhenDisclosureTooShort(t *testing.T) {
	// TDisc far below the mean delay: almost every packet arrives after
	// its key has been disclosed and must be dropped.
	if got := qmin(t, 0.1, 0.2, 1.0, 0.1); got > 1e-6 {
		t.Errorf("QMin = %v, want ~0", got)
	}
}

func TestTESLAMonotoneInTDisc(t *testing.T) {
	prev := -1.0
	for _, td := range []float64{0.5, 1, 2, 4} {
		q := qmin(t, 0.1, td, 0.8, 0.3)
		if q < prev-1e-12 {
			t.Errorf("QMin fell as TDisc rose to %v", td)
		}
		prev = q
	}
}

func TestTESLAValidation(t *testing.T) {
	nan := math.NaN()
	for _, c := range [][4]float64{
		{-0.1, 1, 0, 0},
		{1.5, 1, 0, 0},
		{nan, 1, 0, 0},
		{0.1, -1, 0, 0},
		{0.1, nan, 0, 0},
		{0.1, 1, -1, 0},
		{0.1, 1, nan, 0},
		{0.1, 1, 0, -1},
		{0.1, 1, 0, nan},
	} {
		if q, err := QMin(c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("QMin(p=%v, tDisc=%v, mu=%v, sigma=%v) = %v, want an error", c[0], c[1], c[2], c[3], q)
		}
	}
}

func TestTESLABeatsChainedSchemesAtHighLoss(t *testing.T) {
	// Paper, Figure 8: at large p TESLA is significantly better than
	// EMSS/AC given a generous disclosure delay.
	p := 0.5
	if teslaQ, emssQ := qmin(t, p, 5, 0.5, 0.2), e21QMin(t, 1000, p); teslaQ <= emssQ {
		t.Errorf("at p=0.5 TESLA (%v) should beat EMSS (%v)", teslaQ, emssQ)
	}
}

func TestEMSSBeatsTESLAAtLowLoss(t *testing.T) {
	// Paper, Figure 8: EMSS/AC can outperform TESLA at small p (TESLA
	// pays the timing factor xi < 1).
	p := 0.02
	if teslaQ, emssQ := qmin(t, p, 1, 0.8, 0.3), e21QMin(t, 1000, p); emssQ <= teslaQ {
		t.Errorf("at p=0.02 EMSS (%v) should beat TESLA with tight TDisc (%v)", emssQ, teslaQ)
	}
}
