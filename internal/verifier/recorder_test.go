package verifier

import (
	"slices"
	"testing"
	"time"

	"mcauth/internal/obs"
	"mcauth/internal/packet"
)

// TestRecorderZeroEnv drives every fact through a Recorder with no sink
// attached — nil tracer, ring and registry, the path every library
// caller without observability takes: nothing panics and Stats holds it all.
func TestRecorderZeroEnv(t *testing.T) {
	var r Recorder
	r.Reset(Env{})
	p := &packet.Packet{BlockID: 3, Index: 2}
	at := time.Unix(10, 0)

	r.Received()
	r.Duplicate()
	if !r.Hold(p, at, 0) {
		t.Error("an uncapped buffer turned a packet away")
	}
	if !r.Park(p, at, 1) {
		t.Error("an uncapped buffer turned a signature away")
	}
	r.hashBuffered(p.BlockID, 4, at)
	r.hashDepth(3)
	r.hashDepth(1)
	r.Authenticated(p, at, at.Add(5*time.Millisecond))
	r.Authenticated(p, at, at.Add(-time.Second)) // a clock stepping back is no latency
	r.Rejected(p, at, "bad_signature")
	r.Rejected(nil, at, "bad_key_chain")
	r.Unsafe(p, at)

	got := r.Stats()
	tta := got.TimeToAuth
	want := Counts{
		Received: 1, Duplicates: 1, Authenticated: 2, Rejected: 2, Unsafe: 1,
		MsgBufferHighWater: 2, HashBufferHighWater: 3, PendingSignature: 1,
	}
	if got.Counts != want {
		t.Errorf("Counts = %+v\nwant     %+v", got.Counts, want)
	}
	if tta.Count != 2 || tta.MinSeen != 0 || tta.MaxSeen != (5*time.Millisecond).Nanoseconds() {
		t.Errorf("TimeToAuth = %d observations in [%d, %d], want 2 in [0, 5ms]", tta.Count, tta.MinSeen, tta.MaxSeen)
	}
	if !r.Settle(p, at, false, true) {
		t.Error("an accepting verdict for an unauthenticated packet was not to be accepted")
	}
	if r.Stats().PendingSignature != 0 {
		t.Errorf("PendingSignature = %d after the verdict", r.Stats().PendingSignature)
	}
	r.Reset(Env{})
	if r.Stats() != (Stats{}) {
		t.Errorf("Stats after Reset = %+v, want zero", r.Stats())
	}
}

// TestRecorderCapCountsParkedSignatures: the cap is on every packet awaiting
// authentication information, the verifier's own and the parked signatures
// the Recorder counts, and a drop reaches Stats, the lazily registered
// counter and the trace.
func TestRecorderCapCountsParkedSignatures(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewSpanSink(obs.KeepAll, nil)
	var r Recorder
	r.Reset(Env{MaxBuffered: 2, Metrics: reg, Spans: tracer})
	p := &packet.Packet{BlockID: 1, Index: 1}
	at := time.Unix(0, 0)
	if _, registered := reg.Snapshot().Counters["verifier.overflow_dropped"]; registered {
		t.Error("verifier.overflow_dropped registered before any drop")
	}
	if !r.Park(p, at, 0) || !r.Hold(p, at, 0) {
		t.Fatal("dropped below the cap")
	}
	if r.Hold(p, at, 1) || r.Park(p, at, 1) {
		t.Error("admitted past the cap")
	}
	if got := r.Stats(); got.DroppedOverflow != 2 || got.MsgBufferHighWater != 2 || got.PendingSignature != 1 {
		t.Errorf("Stats = %+v, want 2 drops, high water 2, 1 parked", got)
	}
	if c := reg.Snapshot().Counters["verifier.overflow_dropped"]; c != 2 {
		t.Errorf("verifier.overflow_dropped = %d, want 2", c)
	}
	var kinds []obs.SpanKind
	for _, e := range tracer.Snapshot() {
		kinds = append(kinds, e.Kind)
		if e.Kind != obs.SpanDeferredPark && e.Depth != 1 && e.Depth != 2 {
			t.Errorf("%s at depth %d", e.Kind, e.Depth)
		}
	}
	want := []obs.SpanKind{
		obs.SpanMsgBuffered, obs.SpanDeferredPark, obs.SpanMsgBuffered,
		obs.SpanOverflowDropped, obs.SpanOverflowDropped,
	}
	if !slices.Equal(kinds, want) {
		t.Errorf("traced %v, want %v", kinds, want)
	}
}
