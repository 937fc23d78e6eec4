package rohatgi

import (
	"math"
	"testing"

	"mcauth/internal/crypto"
	"mcauth/internal/depgraph"
	"mcauth/internal/loss"
	"mcauth/internal/scheme"
	"mcauth/internal/schemetest"
)

func TestConformance(t *testing.T) {
	s, err := New(8, crypto.NewSignerFromString("sender"))
	if err != nil {
		t.Fatal(err)
	}
	schemetest.Conformance(t, s, schemetest.FixedClock)
}

func TestEnvConformance(t *testing.T) {
	schemetest.EnvConformance(t, func(signer crypto.Signer) (scheme.Scheme, error) { return New(24, signer) },
		schemetest.FixedClock, schemetest.ChainedHonours)
}

func TestValidation(t *testing.T) {
	if _, err := New(0, crypto.NewSignerFromString("s")); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := New(3, nil); err == nil {
		t.Error("nil signer should fail")
	}
}

func TestGraphShape(t *testing.T) {
	s, err := New(10, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 9 {
		t.Errorf("edges = %d, want 9", g.NumEdges())
	}
	if g.Root() != 1 {
		t.Errorf("root = %d, want 1 (signature first, zero delay)", g.Root())
	}
	maxDelay, err := g.MaxDeterministicDelay()
	if err != nil {
		t.Fatal(err)
	}
	if maxDelay != 0 {
		t.Errorf("delay = %d, want 0", maxDelay)
	}
	if g.MessageBufferSize() != 0 {
		t.Errorf("message buffer = %d, want 0", g.MessageBufferSize())
	}
	if g.HashBufferSize() != 1 {
		t.Errorf("hash buffer = %d, want 1", g.HashBufferSize())
	}
}

// chainQ is the closed form on the chain: q_1 = 1 and q_i = (1-p)^(i-2),
// every packet strictly between P_i and the signature packet surviving.
func chainQ(i int, p float64) float64 {
	if i == 1 {
		return 1
	}
	return math.Pow(1-p, float64(i-2))
}

func chainGraph(t *testing.T, n int) *depgraph.Graph {
	t.Helper()
	s, err := New(n, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphMatchesClosedForm(t *testing.T) {
	// The exact per-packet authentication probability of the runnable
	// construction's graph must equal the closed form. In this scheme send
	// order equals chain order, and the paper's reversed index i
	// corresponds to send index i as well (a single path is symmetric).
	n, p := 10, 0.3
	exact, err := chainGraph(t, n).ExactAuthProb(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if want := chainQ(i, p); math.Abs(exact.Q[i]-want) > 1e-12 {
			t.Errorf("Q[%d] graph %v vs closed form %v", i, exact.Q[i], want)
		}
	}
}

func TestRohatgiClosedForm(t *testing.T) {
	// A single path has no correlation to ignore, so the paper's
	// recurrence is exact on it too, q_min included.
	n, p := 10, 0.2
	res, err := chainGraph(t, n).Recurrence(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if want := chainQ(i, p); math.Abs(res.Q[i]-want) > 1e-12 {
			t.Errorf("Q[%d] = %v, want %v", i, res.Q[i], want)
		}
	}
	if want := chainQ(n, p); math.Abs(res.QMin-want) > 1e-12 {
		t.Errorf("QMin = %v, want %v", res.QMin, want)
	}
}

func TestRohatgiCollapsesWithN(t *testing.T) {
	// The paper's headline observation: Rohatgi's robustness is
	// "incredibly low" — q_min decays geometrically in n.
	qmin := func(n int) float64 {
		res, err := chainGraph(t, n).ExactAuthProbDelivery(depgraph.Delivery{Channel: loss.Bernoulli{P: 0.1}.Channel(), Root: depgraph.Conditioned})
		if err != nil {
			t.Fatal(err)
		}
		return res.QMin
	}
	small, large := qmin(10), qmin(1000)
	if large >= small {
		t.Errorf("QMin should collapse with n: %v vs %v", large, small)
	}
	if large > 1e-10 {
		t.Errorf("QMin(n=1000, p=0.1) = %v, should be vanishing", large)
	}
}

func TestCorruptionSweep(t *testing.T) {
	s, err := New(8, crypto.NewSignerFromString("sender"))
	if err != nil {
		t.Fatal(err)
	}
	schemetest.CorruptionSweep(t, s, schemetest.SweepParams{Reliable: []uint32{1}})
}

func TestRohatgiValidation(t *testing.T) {
	if _, err := New(0, crypto.NewSignerFromString("s")); err == nil {
		t.Error("n=0 should fail")
	}
	g := chainGraph(t, 10)
	for _, p := range []float64{-1, 1.5, math.NaN()} {
		if _, err := g.Recurrence(p); err == nil {
			t.Errorf("recurrence at p=%v should fail", p)
		}
		if _, err := g.ExactAuthProbDelivery(depgraph.Delivery{Channel: loss.Bernoulli{P: p}.Channel(), Root: depgraph.Conditioned}); err == nil {
			t.Errorf("exact at p=%v should fail", p)
		}
	}
}
