package rohatgi

import (
	"math"
	"testing"

	"mcauth/internal/analysis"
	"mcauth/internal/crypto"
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
	s, err := New(24, crypto.NewSignerFromString("sender"))
	if err != nil {
		t.Fatal(err)
	}
	schemetest.EnvConformance(t, s, schemetest.FixedClock, schemetest.ChainedHonours)
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

func TestGraphMatchesClosedForm(t *testing.T) {
	// The exact per-packet authentication probability of the runnable
	// construction's graph must equal the analytic closed form. In this
	// scheme send order equals chain order, and the analytic reversed
	// index i corresponds to send index i as well (a single path is
	// symmetric).
	n, p := 10, 0.3
	s, err := New(n, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	exact, err := g.ExactAuthProb(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := analysis.Rohatgi(n, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		if math.Abs(exact.Q[i]-want.Q[i]) > 1e-12 {
			t.Errorf("Q[%d] graph %v vs analytic %v", i, exact.Q[i], want.Q[i])
		}
	}
}

func TestCorruptionSweep(t *testing.T) {
	s, err := New(8, crypto.NewSignerFromString("sender"))
	if err != nil {
		t.Fatal(err)
	}
	schemetest.CorruptionSweep(t, s, schemetest.SweepParams{Reliable: []uint32{1}})
}
