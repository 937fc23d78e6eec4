package augchain

import (
	"math"
	"testing"

	"mcauth/internal/crypto"
	"mcauth/internal/depgraph"
	"mcauth/internal/loss"
	"mcauth/internal/scheme"
	"mcauth/internal/schemetest"
	"mcauth/internal/stats"
)

func TestConformance(t *testing.T) {
	s, err := New(Config{N: 17, A: 2, B: 3}, crypto.NewSignerFromString("sender"))
	if err != nil {
		t.Fatal(err)
	}
	schemetest.Conformance(t, s, schemetest.FixedClock)
}

func TestConformanceC33(t *testing.T) {
	s, err := New(Config{N: 21, A: 3, B: 3}, crypto.NewSignerFromString("sender"))
	if err != nil {
		t.Fatal(err)
	}
	schemetest.Conformance(t, s, schemetest.FixedClock)
}

func TestEnvConformance(t *testing.T) {
	schemetest.EnvConformance(t, func(signer crypto.Signer) (scheme.Scheme, error) {
		return New(Config{N: 21, A: 3, B: 3}, signer)
	}, schemetest.FixedClock, schemetest.ChainedHonours)
}

func TestValidation(t *testing.T) {
	signer := crypto.NewSignerFromString("s")
	bad := []Config{
		{N: 10, A: 0, B: 3},
		{N: 10, A: 3, B: 0},
		{N: 4, A: 3, B: 3},
	}
	for _, cfg := range bad {
		if _, err := New(cfg, signer); err == nil {
			t.Errorf("config %+v should fail", cfg)
		}
	}
	if _, err := New(Config{N: 17, A: 2, B: 3}, nil); err == nil {
		t.Error("nil signer should fail")
	}
}

func TestEveryPacketLinkedToTwoOthers(t *testing.T) {
	// Golle-Modadugu's defining property: each packet (beyond the
	// boundary) is linked to two other packets, i.e. has in-degree 2 in
	// the dependence graph.
	cfg := Config{N: 21, A: 3, B: 3}
	s, err := New(cfg, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	two, one := 0, 0
	for v := 1; v <= cfg.N; v++ {
		if v == g.Root() {
			continue
		}
		switch g.InDegree(v) {
		case 2:
			two++
		case 1:
			one++
		default:
			t.Errorf("vertex %d has in-degree %d", v, g.InDegree(v))
		}
	}
	if two < cfg.N*2/3 {
		t.Errorf("only %d of %d packets have two links", two, cfg.N-1)
	}
}

func TestGraphNearSignatureMatchesRecurrence(t *testing.T) {
	// Near the signature packet path correlations are negligible, so
	// the exact graph probabilities must track the Equation (10)
	// recurrence closely there. (Deep into the block the recurrence's
	// independence assumption makes it an upper bound; see the next
	// test.)
	cfg := Config{N: 13, A: 2, B: 2}
	p := 0.3
	s, err := New(cfg, crypto.NewSignerFromString("s"))
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
	rec, err := g.Recurrence(p)
	if err != nil {
		t.Fatal(err)
	}
	// The seven packets sent last, nearest the signature packet.
	for send := cfg.N - 6; send <= cfg.N; send++ {
		if diff := math.Abs(exact.Q[send] - rec.Q[send]); diff > 0.06 {
			t.Errorf("packet %d: graph %v vs recurrence %v", send, exact.Q[send], rec.Q[send])
		}
	}
}

func TestRecurrenceUpperBoundsMonteCarlo(t *testing.T) {
	// The Equation (10) recurrence assumes independent dependencies and
	// so upper-bounds the true (Monte-Carlo estimated) probabilities of
	// the real construction. Allow for sampling noise.
	cfg := Config{N: 41, A: 3, B: 3}
	p := 0.2
	s, err := New(cfg, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	model, err := loss.NewBernoulli(p)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := g.MonteCarloAuthProbInto(loss.PatternInto(model), 40000, stats.NewRNG(7), depgraph.MCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := g.Recurrence(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= cfg.N; i++ {
		if mc.Q[i] > rec.Q[i]+0.02 {
			t.Errorf("packet %d: MC %v exceeds recurrence %v", i, mc.Q[i], rec.Q[i])
		}
	}
}

func TestSurvivesBurstLoss(t *testing.T) {
	// The augmented chain's design goal: tolerate a single burst. With
	// a=3 chain hops spanning segments, losing one whole segment of
	// inserted packets plus a chain packet must not disconnect later
	// chain packets.
	cfg := Config{N: 21, A: 3, B: 3}
	s, err := New(cfg, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	received := make([]bool, cfg.N+1)
	for i := 1; i <= cfg.N; i++ {
		received[i] = true
	}
	// Burst of b+1 = 4 consecutive packets in the middle (send order).
	for i := 9; i <= 12; i++ {
		received[i] = false
	}
	verifiable, err := g.VerifiableSet(received)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= cfg.N; i++ {
		if !received[i] {
			continue
		}
		if !verifiable[i] {
			t.Errorf("packet %d not verifiable despite burst tolerance", i)
		}
	}
}

func TestSegments(t *testing.T) {
	if got := (Config{N: 17, A: 2, B: 3}).Segments(); got != 5 {
		t.Errorf("Segments = %d, want 5", got)
	}
	if got := (Config{N: 16, A: 2, B: 3}).Segments(); got != 4 {
		t.Errorf("Segments = %d, want 4", got)
	}
}

func TestGraphMatchesAugChainExact(t *testing.T) {
	// Two independent exact computations of the same quantity: exhaustive
	// enumeration over the runnable construction's graph vs the frontier
	// sweep of it, on a block that ends on a chain packet and on one that
	// ends in a dangling run of inserted packets.
	for _, cfg := range []Config{{N: 13, A: 2, B: 2}, {N: 12, A: 3, B: 3}} {
		p := 0.3
		s, err := New(cfg, crypto.NewSignerFromString("s"))
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
		sweep, err := g.ExactAuthProbDelivery(depgraph.Delivery{Channel: loss.Bernoulli{P: p}.Channel(), Root: depgraph.Conditioned})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= cfg.N; i++ {
			if diff := math.Abs(exact.Q[i] - sweep.Q[i]); diff > 1e-12 {
				t.Errorf("%+v packet %d: enumeration %v vs sweep %v", cfg, i, exact.Q[i], sweep.Q[i])
			}
		}
	}
}

func TestCorruptionSweep(t *testing.T) {
	s, err := New(Config{N: 17, A: 2, B: 3}, crypto.NewSignerFromString("sender"))
	if err != nil {
		t.Fatal(err)
	}
	schemetest.CorruptionSweep(t, s, schemetest.SweepParams{Reliable: []uint32{17}})
}
