package authtree

import (
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/depgraph"
	"mcauth/internal/loss"
	"mcauth/internal/obs"
	"mcauth/internal/packet"
	"mcauth/internal/scheme"
	"mcauth/internal/schemetest"
	"mcauth/internal/stats"
	"mcauth/internal/verifier"
)

func TestConformancePowerOfTwo(t *testing.T) {
	s, err := New(8, crypto.NewSignerFromString("sender"))
	if err != nil {
		t.Fatal(err)
	}
	schemetest.Conformance(t, s, schemetest.FixedClock)
}

// TestEnvConformance: every packet carries the root signature, so nothing
// buffers outside deferred mode and nothing is traced.
func TestEnvConformance(t *testing.T) {
	schemetest.EnvConformance(t, func(signer crypto.Signer) (scheme.Scheme, error) { return New(24, signer) },
		schemetest.FixedClock, schemetest.Honours{BatchQ: true})
}

func TestConformanceOddSize(t *testing.T) {
	s, err := New(13, crypto.NewSignerFromString("sender"))
	if err != nil {
		t.Fatal(err)
	}
	schemetest.Conformance(t, s, schemetest.FixedClock)
}

func TestConformanceSinglePacket(t *testing.T) {
	s, err := New(1, crypto.NewSignerFromString("sender"))
	if err != nil {
		t.Fatal(err)
	}
	schemetest.Conformance(t, s, schemetest.FixedClock)
}

func TestValidation(t *testing.T) {
	if _, err := New(0, crypto.NewSignerFromString("s")); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := New(4, nil); err == nil {
		t.Error("nil signer should fail")
	}
}

func TestEveryPacketIndependentlyVerifiable(t *testing.T) {
	// The defining property: any packet alone verifies, regardless of
	// every other packet being lost.
	s, err := New(10, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	payloads := schemetest.Payloads(10)
	pkts, err := s.Authenticate(1, payloads)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		v, err := s.NewVerifier(verifier.Env{})
		if err != nil {
			t.Fatal(err)
		}
		evs, err := v.Ingest(p, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) != 1 || evs[0].Index != p.Index {
			t.Errorf("packet %d alone did not verify: %v", p.Index, evs)
		}
	}
}

func TestOverheadIsLogN(t *testing.T) {
	s, err := New(16, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := s.Authenticate(1, schemetest.Payloads(16))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if len(p.Hashes) != 4 { // log2(16)
			t.Errorf("packet %d carries %d hashes, want 4", p.Index, len(p.Hashes))
		}
		if len(p.Signature) == 0 {
			t.Errorf("packet %d missing signature", p.Index)
		}
	}
}

func TestWrongPathRejected(t *testing.T) {
	s, err := New(8, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := s.Authenticate(1, schemetest.Payloads(8))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.NewVerifier(verifier.Env{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one sibling hash.
	bad := *pkts[2]
	bad.Hashes = append(bad.Hashes[:0:0], bad.Hashes...)
	bad.Hashes[1].Digest[0] ^= 1
	evs, err := v.Ingest(&bad, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 0 {
		t.Error("corrupted auth path accepted")
	}
	if v.Stats().Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", v.Stats().Rejected)
	}
}

func TestTruncatedPathRejected(t *testing.T) {
	s, err := New(8, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := s.Authenticate(1, schemetest.Payloads(8))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.NewVerifier(verifier.Env{})
	if err != nil {
		t.Fatal(err)
	}
	bad := *pkts[0]
	bad.Hashes = bad.Hashes[:1]
	evs, err := v.Ingest(&bad, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 0 || v.Stats().Rejected != 1 {
		t.Error("truncated path accepted")
	}
}

func TestPaddingCannotBeForged(t *testing.T) {
	// A block of 5 packets pads to 8 leaves; an attacker cannot claim a
	// padding position as a real packet because indices beyond n are
	// rejected outright.
	s, err := New(5, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := s.Authenticate(1, schemetest.Payloads(5))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.NewVerifier(verifier.Env{})
	if err != nil {
		t.Fatal(err)
	}
	fake := *pkts[4]
	fake.Index = 6
	if _, err := v.Ingest(&fake, time.Time{}); err == nil {
		t.Error("index beyond block size should error")
	}
}

func TestGraphStar(t *testing.T) {
	s, err := New(6, crypto.NewSignerFromString("s"))
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
	if exact.QMin != 1 {
		t.Errorf("QMin = %v, want 1 (individual verifiability)", exact.QMin)
	}
	maxDelay, err := g.MaxDeterministicDelay()
	if err != nil {
		t.Fatal(err)
	}
	if maxDelay != 0 {
		t.Errorf("delay = %d, want 0", maxDelay)
	}
}

func TestDuplicateCounted(t *testing.T) {
	s, err := New(4, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := s.Authenticate(1, schemetest.Payloads(4))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.NewVerifier(verifier.Env{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := v.Ingest(pkts[0], time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	if v.Stats().Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1", v.Stats().Duplicates)
	}
}

func TestConformanceQuaternary(t *testing.T) {
	s, err := NewArity(20, 4, crypto.NewSignerFromString("sender"))
	if err != nil {
		t.Fatal(err)
	}
	schemetest.Conformance(t, s, schemetest.FixedClock)
}

func TestArityOverheadTradeoff(t *testing.T) {
	// For n = 64: binary tree carries 6 hashes/packet (depth 6), an
	// 8-ary tree carries 14 (depth 2 x 7 siblings) — wider but shallower.
	signer := crypto.NewSignerFromString("s")
	bin, err := NewArity(64, 2, signer)
	if err != nil {
		t.Fatal(err)
	}
	oct, err := NewArity(64, 8, signer)
	if err != nil {
		t.Fatal(err)
	}
	if got := bin.hashesPerPacket(); got != 6 {
		t.Errorf("binary hashes/pkt = %d, want 6", got)
	}
	if got := oct.hashesPerPacket(); got != 14 {
		t.Errorf("8-ary hashes/pkt = %d, want 14", got)
	}
	pkts, err := oct.Authenticate(1, schemetest.Payloads(64))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if len(p.Hashes) != 14 {
			t.Fatalf("packet %d carries %d hashes, want 14", p.Index, len(p.Hashes))
		}
	}
}

func TestArityValidation(t *testing.T) {
	signer := crypto.NewSignerFromString("s")
	if _, err := NewArity(8, 1, signer); err == nil {
		t.Error("arity 1 should fail")
	}
	if _, err := NewArity(8, 17, signer); err == nil {
		t.Error("arity 17 should fail")
	}
}

func TestArityTamperedSiblingSlotRejected(t *testing.T) {
	// Reordering the sibling slots must be caught by the slot encoding.
	s, err := NewArity(9, 3, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := s.Authenticate(1, schemetest.Payloads(9))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.NewVerifier(verifier.Env{})
	if err != nil {
		t.Fatal(err)
	}
	bad := *pkts[0]
	bad.Hashes = append(bad.Hashes[:0:0], bad.Hashes...)
	bad.Hashes[0], bad.Hashes[1] = bad.Hashes[1], bad.Hashes[0]
	evs, err := v.Ingest(&bad, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 0 || v.Stats().Rejected != 1 {
		t.Error("reordered sibling path accepted")
	}
}

func TestCorruptionSweep(t *testing.T) {
	s, err := New(16, crypto.NewSignerFromString("sender"))
	if err != nil {
		t.Fatal(err)
	}
	schemetest.CorruptionSweep(t, s, schemetest.SweepParams{Reliable: []uint32{1}})
}

// TestProvenNodesDecideLikeColdVerifier: with the node table warmed by
// other packets of the block, in any order, a packet is accepted exactly
// when a verifier that has only seen one genuine packet would hash its
// path to the signed root — genuine packets always, a packet with a
// changed payload, index or sibling digest (at any level, however much of
// the path below it is proven) never.
func TestProvenNodesDecideLikeColdVerifier(t *testing.T) {
	for _, shape := range []struct{ n, arity int }{{13, 2}, {16, 2}, {9, 3}, {20, 4}, {1, 2}} {
		s, err := NewArity(shape.n, shape.arity, crypto.NewSignerFromString("s"))
		if err != nil {
			t.Fatal(err)
		}
		pkts, err := s.Authenticate(7, schemetest.Payloads(shape.n))
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(uint64(shape.n*31 + shape.arity))
		for trial := 0; trial < 8; trial++ {
			v, err := s.NewVerifier(verifier.Env{})
			if err != nil {
				t.Fatal(err)
			}
			ingest := func(p *packet.Packet) int {
				evs, err := v.Ingest(p, time.Time{})
				if err != nil {
					t.Fatal(err)
				}
				return len(evs)
			}
			order := make([]int, shape.n)
			for i := range order {
				j := rng.Intn(i + 1)
				order[i], order[j] = order[j], i
			}
			for k, at := range order {
				p := pkts[at]
				bad := *p
				bad.Payload = append([]byte("x"), p.Payload...)
				if ingest(&bad) != 0 {
					t.Fatalf("n=%d arity=%d: changed payload accepted after %d packets", shape.n, shape.arity, k)
				}
				for h := range p.Hashes {
					bad := *p
					bad.Hashes = append(bad.Hashes[:0:0], p.Hashes...)
					bad.Hashes[h].Digest[5] ^= 4
					if ingest(&bad) != 0 {
						t.Fatalf("n=%d arity=%d: changed sibling %d accepted after %d packets", shape.n, shape.arity, h, k)
					}
				}
				if other := pkts[order[(k+1)%shape.n]]; other != p {
					bad := *p
					bad.Index = other.Index
					if ingest(&bad) != 0 {
						t.Fatalf("n=%d arity=%d: packet %d accepted as index %d", shape.n, shape.arity, p.Index, other.Index)
					}
				}
				if ingest(p) != 1 {
					t.Fatalf("n=%d arity=%d: genuine packet %d rejected after %d packets", shape.n, shape.arity, p.Index, k)
				}
			}
			if st := v.Stats(); st.Authenticated != shape.n {
				t.Fatalf("n=%d arity=%d: authenticated %d", shape.n, shape.arity, st.Authenticated)
			}
		}
	}
}

// TestSecondSignedTreeStillVerifies: a sender that signs two different
// blocks under one ID is at fault, but every packet still proves a signed
// root, so all verify in any interleaving — the node table follows the
// latest root rather than mixing nodes of two trees.
func TestSecondSignedTreeStillVerifies(t *testing.T) {
	const n = 16
	s, err := New(n, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Authenticate(3, schemetest.Payloads(n))
	if err != nil {
		t.Fatal(err)
	}
	other := schemetest.Payloads(2 * n)[n:]
	b, err := s.Authenticate(3, other)
	if err != nil {
		t.Fatal(err)
	}
	// Each index once, from either tree, in any order: a packet can find its
	// lower path proven by its own tree under nodes the other has replaced.
	rng := stats.NewRNG(11)
	for trial := 0; trial < 200; trial++ {
		v, err := s.NewVerifier(verifier.Env{})
		if err != nil {
			t.Fatal(err)
		}
		order := make([]int, n)
		for i := range order {
			j := rng.Intn(i + 1)
			order[i], order[j] = order[j], i
		}
		for _, i := range order {
			p := a[i]
			if rng.Intn(2) == 1 {
				p = b[i]
			}
			evs, err := v.Ingest(p, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			if len(evs) != 1 || string(evs[0].Payload) != string(p.Payload) {
				t.Fatalf("trial %d: packet %d not verified: %v (stats %+v)", trial, p.Index, evs, v.Stats())
			}
		}
	}
}

// TestForgedRootSignatureCostsOneCheck: k packets of a block carrying the
// same forged root signature park on one deferred check, and its failure
// rejects them all without another public-key operation. A genuine packet
// parked behind them carries other signature bytes, so it still gets its
// own check and authenticates.
func TestForgedRootSignatureCostsOneCheck(t *testing.T) {
	const k = 6
	s, err := New(8, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := s.Authenticate(1, schemetest.Payloads(8))
	if err != nil {
		t.Fatal(err)
	}
	forged := append([]byte(nil), pkts[0].Signature...)
	forged[7] ^= 1
	q, err := crypto.NewBatchVerifyQueue(1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	var authed []uint32
	v, err := s.NewVerifier(verifier.Env{BatchQ: q, Sink: func(evs []verifier.Event) {
		for _, ev := range evs {
			authed = append(authed, ev.Index)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	crypto.Instrument(reg)
	defer crypto.Uninstrument()
	for _, p := range pkts[:k] {
		bad := *p
		bad.Signature = append([]byte(nil), forged...)
		if _, err := v.Ingest(&bad, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.Ingest(pkts[k], time.Time{}); err != nil {
		t.Fatal(err)
	}
	q.Resolve()
	if ops := reg.Counter("crypto.verify_ops").Value(); ops != 2 {
		t.Errorf("%d forged copies and one genuine waiter ran %d public-key operations, want 2", k, ops)
	}
	if st := v.Stats(); st.Rejected != k || len(authed) != 1 || authed[0] != pkts[k].Index {
		t.Errorf("rejected %d, authenticated %v; want %d rejected and packet %d", st.Rejected, authed, k, pkts[k].Index)
	}
}

func TestAuthTreeAlwaysOne(t *testing.T) {
	// Every packet carries its full authentication information: on the
	// star the tree emits, q_i = 1 for every packet at any loss rate.
	s, err := New(50, crypto.NewSignerFromString("authtree"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.ExactAuthProbDelivery(depgraph.Delivery{Channel: loss.Bernoulli{P: 0.9}.Channel(), Root: depgraph.Conditioned})
	if err != nil {
		t.Fatal(err)
	}
	if res.QMin != 1 {
		t.Errorf("QMin = %v, want 1", res.QMin)
	}
	for i := 1; i <= 50; i++ {
		if res.Q[i] != 1 {
			t.Errorf("Q[%d] = %v, want 1", i, res.Q[i])
		}
	}
}

func TestAuthTreeHashesPerPacket(t *testing.T) {
	// Every packet of a balanced binary authentication tree over n packets
	// carries the sibling hashes along its root path, ceil(log2 n).
	tests := []struct {
		n    int
		want int
	}{
		{1, 0},
		{2, 1},
		{8, 3},
		{9, 4},
		{1000, 10},
	}
	for _, tt := range tests {
		s, err := New(tt.n, crypto.NewSignerFromString("authtree"))
		if err != nil {
			t.Fatal(err)
		}
		pkts, err := s.Authenticate(1, make([][]byte, tt.n))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			if len(p.Hashes) != tt.want {
				t.Fatalf("n=%d: packet %d carries %d hashes, want %d", tt.n, p.Index, len(p.Hashes), tt.want)
			}
		}
	}
}

func TestAuthTreeValidation(t *testing.T) {
	if _, err := New(0, crypto.NewSignerFromString("authtree")); err == nil {
		t.Error("n=0 should fail")
	}
	// At p = 1 no packet arrives, not even one to verify: the star's exact
	// evaluation fails rather than answer q = 1.
	s, err := New(8, crypto.NewSignerFromString("authtree"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if res, err := g.ExactAuthProbDelivery(depgraph.Delivery{Channel: loss.Bernoulli{P: 1}.Channel(), Root: depgraph.Conditioned}); err == nil {
		t.Errorf("p=1: QMin = %v, want an error", res.QMin)
	}
}
