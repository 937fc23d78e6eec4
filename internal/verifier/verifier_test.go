package verifier

import (
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/packet"
)

// buildChain constructs a 4-packet Rohatgi-style block by hand: P1 signed,
// P1 carries H(P2), P2 carries H(P3), P3 carries H(P4).
func buildChain(t *testing.T, signer crypto.Signer, blockID uint64) []*packet.Packet {
	t.Helper()
	pkts := make([]*packet.Packet, 5)
	for i := 1; i <= 4; i++ {
		pkts[i] = &packet.Packet{
			BlockID: blockID,
			Index:   uint32(i),
			Payload: []byte{byte(i)},
		}
	}
	for i := 3; i >= 1; i-- {
		pkts[i].Hashes = []packet.HashRef{{TargetIndex: uint32(i + 1), Digest: pkts[i+1].Digest()}}
	}
	pkts[1].Signature = signer.Sign(pkts[1].ContentBytes())
	return pkts[1:]
}

// newChained is the zero Chained, Reset: how every verifier is built.
func newChained(blockID uint64, n int, pub crypto.Verifier, env Env) (*Chained, error) {
	v := new(Chained)
	if err := v.Reset(blockID, n, pub, env); err != nil {
		return nil, err
	}
	return v, nil
}

func newVerifier(t *testing.T, signer crypto.Signer, blockID uint64, n int) *Chained {
	t.Helper()
	v, err := newChained(blockID, n, signer.Public(), Env{})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func ingest(t *testing.T, v *Chained, p *packet.Packet) []Event {
	t.Helper()
	events, err := v.Ingest(p, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestInOrderDelivery(t *testing.T) {
	signer := crypto.NewSignerFromString("s")
	pkts := buildChain(t, signer, 1)
	v := newVerifier(t, signer, 1, 4)
	total := 0
	for _, p := range pkts {
		events := ingest(t, v, p)
		total += len(events)
		// In order, each packet verifies immediately.
		if len(events) != 1 || events[0].Index != p.Index {
			t.Fatalf("packet %d: events %v", p.Index, events)
		}
	}
	if total != 4 {
		t.Errorf("authenticated %d, want 4", total)
	}
	st := v.Stats()
	if st.Authenticated != 4 || st.Rejected != 0 || st.MsgBufferHighWater != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestOutOfOrderCascade(t *testing.T) {
	signer := crypto.NewSignerFromString("s")
	pkts := buildChain(t, signer, 1)
	v := newVerifier(t, signer, 1, 4)
	// Deliver 4, 3, 2 first: all buffer.
	for _, idx := range []int{3, 2, 1} {
		if events := ingest(t, v, pkts[idx]); len(events) != 0 {
			t.Fatalf("packet %d verified without signature", idx+1)
		}
	}
	if v.pendingCount() != 3 {
		t.Fatalf("PendingCount = %d, want 3", v.pendingCount())
	}
	// The signature packet arrives last and cascades through everything.
	events := ingest(t, v, pkts[0])
	if len(events) != 4 {
		t.Fatalf("cascade produced %d events, want 4", len(events))
	}
	if v.Stats().MsgBufferHighWater != 3 {
		t.Errorf("MsgBufferHighWater = %d, want 3", v.Stats().MsgBufferHighWater)
	}
	for i := uint32(1); i <= 4; i++ {
		if !v.isAuthentic(i) {
			t.Errorf("packet %d not authentic after cascade", i)
		}
	}
}

func TestLossBreaksChainDownstreamOnly(t *testing.T) {
	signer := crypto.NewSignerFromString("s")
	pkts := buildChain(t, signer, 1)
	v := newVerifier(t, signer, 1, 4)
	// Lose P2: P1 verifies; P3, P4 stay pending forever (Rohatgi
	// fragility).
	ingest(t, v, pkts[0])
	ingest(t, v, pkts[2])
	ingest(t, v, pkts[3])
	if !v.isAuthentic(1) {
		t.Error("P1 should verify")
	}
	if v.isAuthentic(3) || v.isAuthentic(4) {
		t.Error("P3/P4 must not verify with P2 lost")
	}
	if v.pendingCount() != 2 {
		t.Errorf("PendingCount = %d, want 2", v.pendingCount())
	}
}

func TestTamperedPayloadRejected(t *testing.T) {
	signer := crypto.NewSignerFromString("s")
	pkts := buildChain(t, signer, 1)
	v := newVerifier(t, signer, 1, 4)
	ingest(t, v, pkts[0])
	evil := *pkts[1]
	evil.Payload = []byte("evil")
	if events := ingest(t, v, &evil); len(events) != 0 {
		t.Fatal("tampered packet authenticated")
	}
	if v.Stats().Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", v.Stats().Rejected)
	}
	if v.isAuthentic(2) {
		t.Error("tampered packet marked authentic")
	}
}

func TestTamperedBufferedPacketRejectedOnCascade(t *testing.T) {
	signer := crypto.NewSignerFromString("s")
	pkts := buildChain(t, signer, 1)
	v := newVerifier(t, signer, 1, 4)
	evil := *pkts[1]
	evil.Payload = []byte("evil")
	ingest(t, v, &evil) // buffered, unverifiable yet
	events := ingest(t, v, pkts[0])
	// Only P1 authenticates; the buffered forgery is rejected.
	if len(events) != 1 || events[0].Index != 1 {
		t.Fatalf("events %v", events)
	}
	if v.Stats().Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", v.Stats().Rejected)
	}
}

func TestForgedSignatureRejected(t *testing.T) {
	signer := crypto.NewSignerFromString("s")
	attacker := crypto.NewSignerFromString("attacker")
	pkts := buildChain(t, attacker, 1) // signed by the wrong key
	v := newVerifier(t, signer, 1, 4)
	if events := ingest(t, v, pkts[0]); len(events) != 0 {
		t.Fatal("forged signature accepted")
	}
	if v.Stats().Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", v.Stats().Rejected)
	}
}

func TestTamperedSignaturePacketContentRejected(t *testing.T) {
	signer := crypto.NewSignerFromString("s")
	pkts := buildChain(t, signer, 1)
	v := newVerifier(t, signer, 1, 4)
	evil := *pkts[0]
	evil.Payload = []byte("evil")
	if events := ingest(t, v, &evil); len(events) != 0 {
		t.Fatal("tampered signature packet accepted")
	}
}

func TestDuplicateCounted(t *testing.T) {
	signer := crypto.NewSignerFromString("s")
	pkts := buildChain(t, signer, 1)
	v := newVerifier(t, signer, 1, 4)
	ingest(t, v, pkts[0])
	ingest(t, v, pkts[0])
	if v.Stats().Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1", v.Stats().Duplicates)
	}
	ingest(t, v, pkts[3]) // buffered
	ingest(t, v, pkts[3]) // duplicate of buffered
	if v.Stats().Duplicates != 2 {
		t.Errorf("Duplicates = %d, want 2", v.Stats().Duplicates)
	}
}

func TestWrongBlockRejected(t *testing.T) {
	signer := crypto.NewSignerFromString("s")
	pkts := buildChain(t, signer, 2)
	v := newVerifier(t, signer, 1, 4)
	if _, err := v.Ingest(pkts[0], time.Time{}); err == nil {
		t.Error("wrong block ID should error")
	}
}

func TestIndexOutOfRange(t *testing.T) {
	signer := crypto.NewSignerFromString("s")
	v := newVerifier(t, signer, 1, 4)
	bad := &packet.Packet{BlockID: 1, Index: 5}
	if _, err := v.Ingest(bad, time.Time{}); err == nil {
		t.Error("out-of-range index should error")
	}
	if _, err := v.Ingest(nil, time.Time{}); err == nil {
		t.Error("nil packet should error")
	}
}

func TestConstructorValidation(t *testing.T) {
	signer := crypto.NewSignerFromString("s")
	if _, err := newChained(1, 0, signer.Public(), Env{}); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := newChained(1, 4, nil, Env{}); err == nil {
		t.Error("nil key should fail")
	}
}

func TestHashBufferHighWater(t *testing.T) {
	// Signature packet first delivers 1 trusted hash for a packet not
	// yet arrived.
	signer := crypto.NewSignerFromString("s")
	pkts := buildChain(t, signer, 1)
	v := newVerifier(t, signer, 1, 4)
	ingest(t, v, pkts[0])
	if hw := v.Stats().HashBufferHighWater; hw != 1 {
		t.Errorf("HashBufferHighWater = %d, want 1", hw)
	}
}

func TestBufferCapDropsOverflow(t *testing.T) {
	signer := crypto.NewSignerFromString("s")
	pkts := buildChain(t, signer, 1)
	v, err := newChained(1, 4, signer.Public(), Env{MaxBuffered: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Without the signature packet, non-root packets buffer; only one
	// slot exists.
	ingest(t, v, pkts[2]) // buffered
	ingest(t, v, pkts[3]) // dropped: buffer full
	st := v.Stats()
	if st.DroppedOverflow != 1 {
		t.Errorf("DroppedOverflow = %d, want 1", st.DroppedOverflow)
	}
	if st.MsgBufferHighWater != 1 {
		t.Errorf("MsgBufferHighWater = %d, want 1", st.MsgBufferHighWater)
	}
	// The signature still cascades the buffered packet (and P2, which
	// arrives verifiable directly).
	ingest(t, v, pkts[0])
	ingest(t, v, pkts[1])
	if !v.isAuthentic(3) {
		t.Error("buffered packet lost despite fitting in the cap")
	}
	if v.isAuthentic(4) {
		t.Error("dropped packet cannot become authentic")
	}
}

func TestBufferCapValidation(t *testing.T) {
	signer := crypto.NewSignerFromString("s")
	if _, err := newChained(1, 4, signer.Public(), Env{MaxBuffered: -1}); err == nil {
		t.Error("negative cap should fail")
	}
}
