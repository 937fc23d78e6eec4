package emss

import (
	"math"
	"slices"
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/depgraph"
	"mcauth/internal/loss"
	"mcauth/internal/scheme"
	"mcauth/internal/schemetest"
	"mcauth/internal/verifier"
)

func TestConformance(t *testing.T) {
	s, err := New(Config{N: 12, M: 2, D: 1}, crypto.NewSignerFromString("sender"))
	if err != nil {
		t.Fatal(err)
	}
	schemetest.Conformance(t, s, schemetest.FixedClock)
}

func TestConformanceLargerSpacing(t *testing.T) {
	s, err := New(Config{N: 20, M: 3, D: 2}, crypto.NewSignerFromString("sender"))
	if err != nil {
		t.Fatal(err)
	}
	schemetest.Conformance(t, s, schemetest.FixedClock)
}

func TestEnvConformance(t *testing.T) {
	schemetest.EnvConformance(t, func(signer crypto.Signer) (scheme.Scheme, error) {
		return New(Config{N: 24, M: 2, D: 1}, signer)
	}, schemetest.FixedClock, schemetest.ChainedHonours)
}

func TestValidation(t *testing.T) {
	signer := crypto.NewSignerFromString("s")
	bad := []Config{
		{N: 1, M: 1, D: 1},
		{N: 10, M: 0, D: 1},
		{N: 10, M: 1, D: 0},
		{N: 10, M: 5, D: 2},
	}
	for _, cfg := range bad {
		if _, err := New(cfg, signer); err == nil {
			t.Errorf("config %+v should fail", cfg)
		}
	}
	if _, err := New(Config{N: 10, M: 2, D: 1}, nil); err == nil {
		t.Error("nil signer should fail")
	}
}

func TestRootIsLastPacket(t *testing.T) {
	s, err := New(Config{N: 10, M: 2, D: 1}, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.Root() != 10 {
		t.Errorf("root = %d, want 10 (signature last)", g.Root())
	}
	pkts, err := s.Authenticate(1, schemetest.Payloads(10))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		hasSig := len(p.Signature) > 0
		if hasSig != (p.Index == 10) {
			t.Errorf("packet %d signature presence = %v", p.Index, hasSig)
		}
	}
}

func TestGraphMatchesMarkovExact(t *testing.T) {
	// The exhaustive enumeration over the runnable construction's
	// dependence graph must agree with the frontier sweep of the same
	// graph: two independent computations of the same quantity.
	n, p := 14, 0.3
	s, err := New(Config{N: n, M: 2, D: 1}, crypto.NewSignerFromString("s"))
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
	for i := 1; i <= n; i++ {
		if diff := math.Abs(exact.Q[i] - sweep.Q[i]); diff > 1e-12 {
			t.Errorf("packet %d: enumeration %v vs sweep %v", i, exact.Q[i], sweep.Q[i])
		}
	}
}

func TestRecurrenceUpperBoundsGraphExact(t *testing.T) {
	// The paper's Equation (8) recurrence assumes independent paths and
	// therefore upper-bounds the exact per-packet probability of the
	// real construction.
	n, p := 14, 0.3
	s, err := New(Config{N: n, M: 2, D: 1}, crypto.NewSignerFromString("s"))
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
	for i := 1; i <= n; i++ {
		if exact.Q[i] > rec.Q[i]+1e-9 {
			t.Errorf("packet %d: graph exact %v exceeds recurrence %v", i, exact.Q[i], rec.Q[i])
		}
	}
}

func TestBoundaryPacketsAlwaysVerifiable(t *testing.T) {
	// The signature packet carries the hashes of the last m*d packets
	// before it, so those verify whenever received (the recurrence's
	// initial condition).
	n := 12
	s, err := New(Config{N: n, M: 2, D: 2}, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	exact, err := g.ExactAuthProb(0.5)
	if err != nil {
		t.Fatal(err)
	}
	for rev := 2; rev <= 2*2+1; rev++ {
		send := n + 1 - rev
		if exact.Q[send] != 1 {
			t.Errorf("reversed index %d (send %d): q = %v, want 1", rev, send, exact.Q[send])
		}
	}
}

func TestSurvivesSingleLoss(t *testing.T) {
	// Unlike Rohatgi, E_{2,1} tolerates any single interior loss.
	n := 10
	s, err := New(Config{N: n, M: 2, D: 1}, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	payloads := schemetest.Payloads(n)
	for lost := 1; lost < n; lost++ { // never lose the signature packet
		pkts, err := s.Authenticate(1, payloads)
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.NewVerifier(verifier.Env{})
		if err != nil {
			t.Fatal(err)
		}
		authenticated := 0
		for _, p := range pkts {
			if int(p.Index) == lost {
				continue
			}
			evs, err := v.Ingest(p, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			authenticated += len(evs)
		}
		if authenticated != n-1 {
			t.Errorf("lost packet %d: authenticated %d of %d received", lost, authenticated, n-1)
		}
	}
}

func TestReversedIndex(t *testing.T) {
	if got := reversedIndex(10, 10); got != 1 {
		t.Errorf("ReversedIndex(10,10) = %d, want 1", got)
	}
	if got := reversedIndex(1, 10); got != 10 {
		t.Errorf("ReversedIndex(1,10) = %d, want 10", got)
	}
}

// TestEdgesMatchDedupingBuilder pins the edge list, order included (it is
// the order hashes are placed in carriers), to the original construction:
// every clamped carrier appended once, each candidate checked against all
// edges built so far.
func TestEdgesMatchDedupingBuilder(t *testing.T) {
	reference := func(cfg Config) [][2]int {
		var out [][2]int
		for s := 1; s < cfg.N; s++ {
			for k := 1; k <= cfg.M; k++ {
				e := [2]int{min(s+k*cfg.D, cfg.N), s}
				if !slices.Contains(out, e) {
					out = append(out, e)
				}
			}
		}
		return out
	}
	for n := 2; n <= 40; n++ {
		for m := 1; m < n; m++ {
			for d := 1; m*d < n; d++ {
				cfg := Config{N: n, M: m, D: d}
				if got, want := edges(cfg), reference(cfg); !slices.Equal(got, want) {
					t.Fatalf("E_{%d,%d} n=%d: edges %v, want %v", m, d, n, got, want)
				}
			}
		}
	}
	for _, cfg := range []Config{{N: 1000, M: 2, D: 1}, {N: 1000, M: 6, D: 3}, {N: 301, M: 4, D: 7}} {
		if got, want := edges(cfg), reference(cfg); !slices.Equal(got, want) {
			t.Fatalf("%+v: edge lists differ", cfg)
		}
	}
}

func TestOverheadMatchesM(t *testing.T) {
	// Each non-signature packet's hash is stored m times (with clamped
	// duplicates collapsing into the signature packet), so the average
	// out-degree is at most m and close to it for n >> m*d.
	s, err := New(Config{N: 100, M: 2, D: 1}, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	avg := g.AvgHashesPerPacket()
	if avg > 2 || avg < 1.8 {
		t.Errorf("avg hashes per packet = %v, want in (1.8, 2]", avg)
	}
}

func TestCorruptionSweep(t *testing.T) {
	s, err := New(Config{N: 12, M: 2, D: 1}, crypto.NewSignerFromString("sender"))
	if err != nil {
		t.Fatal(err)
	}
	schemetest.CorruptionSweep(t, s, schemetest.SweepParams{Reliable: []uint32{12}})
}
