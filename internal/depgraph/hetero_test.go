package depgraph

import (
	"math"
	"testing"

	"mcauth/internal/stats"
)

func TestExactVectorUniformMatchesScalar(t *testing.T) {
	g := emssGraph(t, 10)
	p := 0.3
	scalar, err := g.ExactAuthProb(p)
	if err != nil {
		t.Fatal(err)
	}
	probs := make([]float64, 11)
	for i := range probs {
		probs[i] = p
	}
	vector, err := g.ExactAuthProbVector(probs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if math.Abs(scalar.Q[i]-vector.Q[i]) > 1e-12 {
			t.Errorf("Q[%d]: scalar %v vs vector %v", i, scalar.Q[i], vector.Q[i])
		}
	}
}

func TestExactVectorChainClosedForm(t *testing.T) {
	// Chain with heterogeneous losses: q_i = prod of (1-p_j) over the
	// interior packets j = 2..i-1.
	g := chainGraph(t, 6)
	probs := []float64{0, 0, 0.1, 0.2, 0.3, 0.4, 0.5}
	res, err := g.ExactAuthProbVector(probs)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0
	for i := 2; i <= 6; i++ {
		if math.Abs(res.Q[i]-want) > 1e-12 {
			t.Errorf("Q[%d] = %v, want %v", i, res.Q[i], want)
		}
		want *= 1 - probs[i]
	}
}

func TestExactVectorLossyMiddlePacketDominates(t *testing.T) {
	// Making a single cut vertex lossy must depress everything behind
	// it.
	g := chainGraph(t, 6)
	probs := []float64{0, 0, 0, 0.9, 0, 0, 0}
	res, err := g.ExactAuthProbVector(probs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Q[2] != 1 || res.Q[3] != 1 {
		t.Error("packets before the lossy cut should be unaffected")
	}
	for i := 4; i <= 6; i++ {
		if math.Abs(res.Q[i]-0.1) > 1e-12 {
			t.Errorf("Q[%d] = %v, want 0.1", i, res.Q[i])
		}
	}
}

func TestExactVectorValidation(t *testing.T) {
	g := chainGraph(t, 4)
	if _, err := g.ExactAuthProbVector([]float64{0, 0.1}); err == nil {
		t.Error("wrong length should fail")
	}
	if _, err := g.ExactAuthProbVector([]float64{0, 0.1, math.NaN(), 0.1, 0.1}); err == nil {
		t.Error("NaN probability should fail")
	}
	if _, err := g.ExactAuthProbVector([]float64{0, 0.1, 1.5, 0.1, 0.1}); err == nil {
		t.Error("out-of-range probability should fail")
	}
}

func TestSpread(t *testing.T) {
	// A chain's q_i varies widely; a star's does not. The paper's
	// variance criterion must rank them accordingly.
	chain := chainGraph(t, 12)
	chainRes, err := chain.ExactAuthProb(0.3)
	if err != nil {
		t.Fatal(err)
	}
	chainSpread, err := chainRes.Spread()
	if err != nil {
		t.Fatal(err)
	}
	star, err := New(12, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 12; i++ {
		star.MustAddEdge(1, i)
	}
	starRes, err := star.ExactAuthProb(0.3)
	if err != nil {
		t.Fatal(err)
	}
	starSpread, err := starRes.Spread()
	if err != nil {
		t.Fatal(err)
	}
	if starSpread.Var != 0 {
		t.Errorf("star variance = %v, want 0", starSpread.Var)
	}
	if chainSpread.Var <= starSpread.Var {
		t.Errorf("chain variance %v should exceed star variance %v",
			chainSpread.Var, starSpread.Var)
	}
	if chainSpread.Min != chainRes.QMin {
		t.Errorf("Spread min %v != QMin %v", chainSpread.Min, chainRes.QMin)
	}
}

// TestHeterogeneousPatternMatchesExact checks the per-packet-loss exact
// evaluation against Monte-Carlo under a pattern that loses packet i with
// probability probs[i].
func TestHeterogeneousPatternMatchesExact(t *testing.T) {
	g := emssGraph(t, 10)
	probs := []float64{0, 0, 0.1, 0.2, 0.5, 0.1, 0.4, 0.3, 0.2, 0.1, 0.6}
	exact, err := g.ExactAuthProbVector(probs)
	if err != nil {
		t.Fatal(err)
	}
	hetero := PerTrial(func(rng *stats.RNG, received []bool) {
		for i := 1; i < len(received); i++ {
			received[i] = rng.Float64() >= probs[i]
		}
	})
	mc, err := g.MonteCarloAuthProbInto(hetero, 60000, stats.NewRNG(17), MCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		iv, err := stats.WilsonInterval(mc.VerifiedCounts[i], mc.ReceivedCounts[i], 0.9999)
		if err != nil {
			t.Fatal(err)
		}
		if !iv.Contains(exact.Q[i]) {
			t.Errorf("vertex %d: exact %v outside MC interval %+v", i, exact.Q[i], iv)
		}
	}
}
