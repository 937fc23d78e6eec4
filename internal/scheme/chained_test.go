package scheme_test

import (
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/scheme"
	"mcauth/internal/schemetest"
	"mcauth/internal/verifier"
)

// diamond is a custom topology exercising the generic chained machinery
// directly: root P1 covers P2 and P3, both of which cover P4.
func diamond(t *testing.T) *scheme.Chained {
	t.Helper()
	return diamondSignedBy(t, crypto.NewSignerFromString("chained"))
}

// diamondSignedBy is the diamond under signer.
func diamondSignedBy(t *testing.T, signer crypto.Signer) *scheme.Chained {
	t.Helper()
	s, err := scheme.NewChained(scheme.Topology{
		Name:  "diamond",
		N:     4,
		Root:  1,
		Edges: [][2]int{{1, 2}, {1, 3}, {2, 4}, {3, 4}},
	}, signer)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestChainedConformance(t *testing.T) {
	schemetest.Conformance(t, diamond(t), schemetest.FixedClock)
}

func TestChainedAccessors(t *testing.T) {
	s := diamond(t)
	if s.Name() != "diamond" {
		t.Errorf("Name = %q", s.Name())
	}
	if s.BlockSize() != 4 || s.WireCount() != 4 {
		t.Errorf("sizes: %d / %d", s.BlockSize(), s.WireCount())
	}
}

func TestChainedRedundantPathSurvivesLoss(t *testing.T) {
	// P4 is covered by both P2 and P3: losing either still verifies P4.
	s := diamond(t)
	payloads := schemetest.Payloads(4)
	for _, lost := range []uint32{2, 3} {
		pkts, err := s.Authenticate(1, payloads)
		if err != nil {
			t.Fatal(err)
		}
		v, err := s.NewVerifier(verifier.Env{})
		if err != nil {
			t.Fatal(err)
		}
		verified := 0
		for _, p := range pkts {
			if p.Index == lost {
				continue
			}
			events, err := v.Ingest(p, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			verified += len(events)
		}
		if verified != 3 {
			t.Errorf("lost %d: verified %d of 3 received", lost, verified)
		}
	}
}

func TestChainedConstructionErrors(t *testing.T) {
	signer := crypto.NewSignerFromString("chained")
	cases := []scheme.Topology{
		{Name: "bad-n", N: 0, Root: 1},
		{Name: "bad-root", N: 3, Root: 4},
		{Name: "unrooted", N: 3, Root: 1, Edges: [][2]int{{1, 2}}},
		{Name: "cyclic-ish", N: 3, Root: 1, Edges: [][2]int{{1, 2}, {2, 3}, {3, 2}, {1, 3}}},
		{Name: "dup", N: 3, Root: 1, Edges: [][2]int{{1, 2}, {1, 2}, {1, 3}}},
	}
	for _, topo := range cases {
		if _, err := scheme.NewChained(topo, signer); err == nil {
			t.Errorf("topology %q should fail", topo.Name)
		}
	}
	good := scheme.Topology{Name: "ok", N: 2, Root: 1, Edges: [][2]int{{1, 2}}}
	if _, err := scheme.NewChained(good, nil); err == nil {
		t.Error("nil signer should fail")
	}
}

func TestChainedRuntimeErrors(t *testing.T) {
	s := diamond(t)
	if _, err := s.Authenticate(1, schemetest.Payloads(3)); err == nil {
		t.Error("wrong payload count should fail")
	}
	v, err := s.NewVerifier(verifier.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Ingest(nil, time.Time{}); err == nil {
		t.Error("nil first packet should fail")
	}
	if st := v.Stats(); st.Received != 0 {
		t.Errorf("stats before first packet: %+v", st)
	}
}

func TestChainedCorruptionSweep(t *testing.T) {
	schemetest.CorruptionSweep(t, diamond(t), schemetest.SweepParams{Reliable: []uint32{1}})
}
