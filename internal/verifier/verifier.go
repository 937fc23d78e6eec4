// Package verifier implements the receiver-side verification engine for
// hash-chained (signature-amortizing) schemes. It is scheme-agnostic: any
// chained topology — Rohatgi's chain, EMSS, augmented chains, or graphs
// produced by the Section 5 construction toolkit — verifies with the same
// engine, because the wire packets themselves carry the dependence edges.
//
// The engine maintains exactly the two buffers the paper attributes to a
// receiver: a hash buffer (trusted digests received ahead of their packets)
// and a message buffer (packets received ahead of their authentication
// information). Packets become authentic when their digest matches a
// trusted digest; trusted digests originate from the block signature and
// propagate along dependence edges.
//
// The engine is observable: it always measures arrival-to-authentication
// latency (the paper's receiver delay) into Stats.TimeToAuth, and can
// additionally emit per-packet lifecycle events and registry metrics when
// given a Tracer / Metrics registry in its Env (see internal/obs).
package verifier

import (
	"errors"
	"fmt"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/obs"
	"mcauth/internal/packet"
)

// Event reports a packet newly authenticated by an Ingest call.
type Event struct {
	Index   uint32
	Payload []byte
}

// Stats summarizes a verifier's lifetime.
type Stats struct {
	Received      int // packets ingested
	Authenticated int // packets proven authentic
	Rejected      int // packets whose digest or signature failed (tampering)
	Unsafe        int // TESLA only: packets dropped by the safety condition
	Duplicates    int // packets ingested more than once

	// MsgBufferHighWater is the peak number of packets buffered while
	// awaiting authentication information (the paper's message buffer).
	MsgBufferHighWater int
	// HashBufferHighWater is the peak number of trusted digests held for
	// packets not yet arrived (the paper's hash buffer).
	HashBufferHighWater int
	// DroppedOverflow counts packets discarded because the message
	// buffer hit its configured cap (the denial-of-service guard; the
	// paper notes receiver buffering "is subject to Denial of Service
	// attacks").
	DroppedOverflow int

	// TimeToAuth is the histogram of arrival-to-authentication latency
	// over this verifier's authenticated packets, in nanoseconds — the
	// measured receiver delay of the paper, recorded inside the engine
	// so transport-driven runs get receiver-delay numbers too.
	TimeToAuth obs.HistogramData

	// CacheHits counts packets accepted straight from a SharedCache
	// (content digest already proven authentic by another subscriber).
	CacheHits int
	// PendingSignature counts signature packets currently awaiting a
	// deferred batch-verify verdict.
	PendingSignature int
}

// metrics caches the registry instruments the engine updates, looked up
// once at construction so Ingest never touches the registry's lock.
type metrics struct {
	reg           *obs.Registry
	authenticated *obs.Counter
	rejected      *obs.Counter
	duplicates    *obs.Counter
	// overflow is registered lazily on the first eviction so unbounded
	// (and never-overflowing) runs keep their metrics dump unchanged.
	overflow      *obs.Counter
	msgHighWater  *obs.Histogram
	hashHighWater *obs.Histogram
	timeToAuth    *obs.Histogram
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		return nil
	}
	return &metrics{
		reg:           reg,
		authenticated: reg.Counter("verifier.authenticated"),
		rejected:      reg.Counter("verifier.rejected"),
		duplicates:    reg.Counter("verifier.duplicates"),
		msgHighWater:  reg.Histogram("verifier.msg_buffer_high_water"),
		hashHighWater: reg.Histogram("verifier.hash_buffer_high_water"),
		timeToAuth:    reg.Histogram("verifier.time_to_auth_ns"),
	}
}

// buffered is one message-buffer entry: the packet plus its arrival time,
// kept so the cascade can measure arrival-to-authentication latency.
type bufferedPacket struct {
	p       *packet.Packet
	arrived time.Time
}

// Chained verifies one block of a hash-chained scheme.
type Chained struct {
	blockID uint64
	n       uint32
	pub     crypto.Verifier

	// env is the verifier's configuration, fixed at construction.
	env Env
	m   *metrics

	trusted   map[uint32]crypto.Digest // digests proven authentic, by index
	buffered  map[uint32]bufferedPacket
	authentic map[uint32]bool
	stats     Stats
	// pendingSig holds signature packets awaiting a deferred verdict. A
	// slice per index, so an attacker racing a forged signature packet
	// ahead of the genuine one cannot occupy the index and starve it.
	pendingSig map[uint32][]bufferedPacket
}

// NewChained creates a verifier for one block of n packets signed by the
// holder of pub, configured by env.
func NewChained(blockID uint64, n int, pub crypto.Verifier, env Env) (*Chained, error) {
	if n < 1 {
		return nil, fmt.Errorf("verifier: block size %d must be >= 1", n)
	}
	if pub == nil {
		return nil, errors.New("verifier: nil public key")
	}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	v := &Chained{
		blockID:   blockID,
		n:         uint32(n),
		pub:       pub,
		env:       env,
		m:         newMetrics(env.Metrics),
		trusted:   make(map[uint32]crypto.Digest),
		buffered:  make(map[uint32]bufferedPacket),
		authentic: make(map[uint32]bool),
	}
	if env.BatchQ != nil {
		v.pendingSig = make(map[uint32][]bufferedPacket)
	}
	return v, nil
}

// span records one lifecycle span when the ring is attached and enabled.
func (v *Chained) span(kind obs.SpanKind, index uint32, at time.Time, dur time.Duration, reason string) {
	if !v.env.Spans.Enabled() {
		return
	}
	v.env.Spans.Record(obs.Span{
		Kind:   kind,
		Stream: v.env.StreamID,
		Block:  v.blockID,
		Index:  index,
		TimeNS: obs.TimeNS(at),
		DurNS:  dur.Nanoseconds(),
		Reason: reason,
	})
}

// digestOf computes p's content digest through the shared memo when one
// is attached.
func (v *Chained) digestOf(p *packet.Packet) crypto.Digest {
	if v.env.Cache != nil {
		return v.env.Cache.DigestOf(p)
	}
	return p.Digest()
}

// Ingest processes one arriving packet at the given receiver-local time.
// The timestamp orders buffering against authentication for the receiver-
// delay measurement; hash-chained schemes have no timing condition of
// their own.
func (v *Chained) Ingest(p *packet.Packet, at time.Time) ([]Event, error) {
	if p == nil {
		return nil, errors.New("verifier: nil packet")
	}
	if p.BlockID != v.blockID {
		return nil, fmt.Errorf("verifier: packet block %d, verifier block %d", p.BlockID, v.blockID)
	}
	if p.Index < 1 || p.Index > v.n {
		return nil, fmt.Errorf("verifier: index %d out of [1,%d]", p.Index, v.n)
	}
	v.stats.Received++
	if _, dup := v.buffered[p.Index]; v.authentic[p.Index] || dup {
		v.stats.Duplicates++
		v.m.countDuplicate()
		return nil, nil
	}

	// Shared-cache fast path: a packet whose exact content was already
	// proven authentic in this stream and block (by this or any other
	// subscriber) is accepted without re-running its signature or digest
	// check — see the forgery-safety argument in cache.go.
	if v.env.Cache != nil {
		if d := v.env.Cache.DigestOf(p); v.env.Cache.IsAuthentic(v.env.StreamID, p.BlockID, d) {
			v.stats.CacheHits++
			return v.accept(p, at), nil
		}
	}

	var events []Event
	switch {
	case len(p.Signature) > 0:
		if v.env.BatchQ != nil {
			v.deferSignature(p, at)
			return nil, nil
		}
		if !v.pub.Verify(p.ContentBytes(), p.Signature) {
			v.reject(p, at, "bad_signature")
			return nil, nil
		}
		events = v.accept(p, at)
	default:
		want, ok := v.trusted[p.Index]
		if !ok {
			if v.env.MaxBuffered > 0 && len(v.buffered)+v.stats.PendingSignature >= v.env.MaxBuffered {
				v.stats.DroppedOverflow++
				v.m.countOverflow()
				v.emit(obs.Event{
					Type: obs.EventOverflowDropped, Index: p.Index,
					Block: p.BlockID, TimeNS: obs.TimeNS(at), Depth: len(v.buffered),
				})
				return nil, nil
			}
			v.buffered[p.Index] = bufferedPacket{p: p, arrived: at}
			if len(v.buffered) > v.stats.MsgBufferHighWater {
				v.stats.MsgBufferHighWater = len(v.buffered)
				if v.m != nil {
					v.m.msgHighWater.Observe(int64(len(v.buffered)))
				}
			}
			v.emit(obs.Event{
				Type: obs.EventMsgBuffered, Index: p.Index,
				Block: p.BlockID, TimeNS: obs.TimeNS(at), Depth: len(v.buffered),
			})
			return nil, nil
		}
		if v.digestOf(p) != want {
			v.reject(p, at, "digest_mismatch")
			return nil, nil
		}
		events = v.accept(p, at)
	}
	return events, nil
}

// deferSignature parks a signature packet pending its batch verdict and
// enqueues the underlying check. The packet counts against the buffer cap
// like any buffered packet (pending-signature floods are attacker
// reachable).
func (v *Chained) deferSignature(p *packet.Packet, at time.Time) {
	if v.env.MaxBuffered > 0 && len(v.buffered)+v.stats.PendingSignature >= v.env.MaxBuffered {
		v.stats.DroppedOverflow++
		v.m.countOverflow()
		v.emit(obs.Event{
			Type: obs.EventOverflowDropped, Index: p.Index,
			Block: p.BlockID, TimeNS: obs.TimeNS(at), Depth: len(v.buffered),
		})
		return
	}
	v.pendingSig[p.Index] = append(v.pendingSig[p.Index], bufferedPacket{p: p, arrived: at})
	v.stats.PendingSignature++
	v.span(obs.SpanDeferredPark, p.Index, at, 0, "")
	v.emit(obs.Event{
		Type: obs.EventMsgBuffered, Index: p.Index,
		Block: p.BlockID, TimeNS: obs.TimeNS(at), Depth: len(v.buffered) + v.stats.PendingSignature,
	})
	// The verdict callback may run synchronously (threshold reached) or
	// from a later Resolve on the ingest goroutine.
	v.env.BatchQ.Enqueue(v.pub, p.ContentBytes(), p.Signature, func(ok bool) {
		v.resolveSignature(p, at, ok)
	})
}

// resolveSignature applies one deferred verdict. Authentication events
// cascade exactly as in the synchronous path but are delivered through
// the sink, since the originating Ingest has long returned. The packet's
// arrival time stands in for the verdict time, so TimeToAuth keeps using
// the caller's clock (batch-resolution latency is observable on the queue
// instead).
func (v *Chained) resolveSignature(p *packet.Packet, arrived time.Time, ok bool) {
	v.unparkPending(p)
	v.span(obs.SpanSigResolve, p.Index, arrived, 0, "")
	if v.authentic[p.Index] {
		// Another copy of the signature packet (or a cascade) got there
		// first.
		v.stats.Duplicates++
		v.m.countDuplicate()
		return
	}
	if !ok {
		v.reject(p, arrived, "bad_signature")
		return
	}
	events := v.accept(p, arrived)
	if v.env.Sink != nil && len(events) > 0 {
		v.env.Sink(events)
	}
}

// unparkPending removes one pending-signature entry for p.
func (v *Chained) unparkPending(p *packet.Packet) {
	list := v.pendingSig[p.Index]
	for i := range list {
		if list[i].p == p {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			v.stats.PendingSignature--
			break
		}
	}
	if len(list) == 0 {
		delete(v.pendingSig, p.Index)
	} else {
		v.pendingSig[p.Index] = list
	}
}

func (v *Chained) reject(p *packet.Packet, at time.Time, reason string) {
	v.stats.Rejected++
	v.m.countRejected()
	v.span(obs.SpanReject, p.Index, at, 0, reason)
	v.emit(obs.Event{
		Type: obs.EventRejected, Index: p.Index,
		Block: p.BlockID, TimeNS: obs.TimeNS(at), Reason: reason,
	})
}

// authenticate records one successful authentication at time `at` of a
// packet that arrived at `arrived`.
func (v *Chained) authenticate(p *packet.Packet, arrived, at time.Time) {
	v.authentic[p.Index] = true
	v.stats.Authenticated++
	if v.env.Cache != nil {
		v.env.Cache.MarkAuthentic(v.env.StreamID, p.BlockID, v.env.Cache.DigestOf(p))
	}
	latency := at.Sub(arrived)
	if latency < 0 {
		latency = 0
	}
	v.stats.TimeToAuth.Observe(latency.Nanoseconds())
	if v.m != nil {
		v.m.authenticated.Inc()
		v.m.timeToAuth.Observe(latency.Nanoseconds())
	}
	v.span(obs.SpanAuthenticate, p.Index, at, latency, "")
	v.emit(obs.Event{
		Type: obs.EventAuthenticated, Index: p.Index, Block: p.BlockID,
		TimeNS: obs.TimeNS(at), LatencyNS: latency.Nanoseconds(),
	})
}

// accept marks p authentic, trusts its carried hashes, and cascades into
// the message buffer. It returns the authentication events in cascade
// order.
func (v *Chained) accept(p *packet.Packet, at time.Time) []Event {
	events := []Event{{Index: p.Index, Payload: p.Payload}}
	v.authenticate(p, at, at)
	delete(v.buffered, p.Index)

	queue := []*packet.Packet{p}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, h := range cur.Hashes {
			if _, known := v.trusted[h.TargetIndex]; known {
				continue
			}
			v.trusted[h.TargetIndex] = h.Digest
			waiting, ok := v.buffered[h.TargetIndex]
			if !ok {
				if !v.authentic[h.TargetIndex] {
					v.emit(obs.Event{
						Type: obs.EventHashBuffered, Index: h.TargetIndex,
						Block: p.BlockID, TimeNS: obs.TimeNS(at),
					})
				}
				continue
			}
			if v.digestOf(waiting.p) != h.Digest {
				v.reject(waiting.p, at, "digest_mismatch")
				delete(v.buffered, h.TargetIndex)
				continue
			}
			v.authenticate(waiting.p, waiting.arrived, at)
			delete(v.buffered, waiting.p.Index)
			events = append(events, Event{Index: waiting.p.Index, Payload: waiting.p.Payload})
			queue = append(queue, waiting.p)
		}
	}
	v.updateHashHighWater()
	return events
}

func (v *Chained) updateHashHighWater() {
	pendingHashes := 0
	for idx := range v.trusted {
		if !v.authentic[idx] {
			pendingHashes++
		}
	}
	if pendingHashes > v.stats.HashBufferHighWater {
		v.stats.HashBufferHighWater = pendingHashes
		if v.m != nil {
			v.m.hashHighWater.Observe(int64(pendingHashes))
		}
	}
}

func (v *Chained) emit(e obs.Event) {
	if v.env.Tracer == nil {
		return
	}
	v.env.Tracer.Emit(e)
}

func (m *metrics) countDuplicate() {
	if m != nil {
		m.duplicates.Inc()
	}
}

func (m *metrics) countRejected() {
	if m != nil {
		m.rejected.Inc()
	}
}

func (m *metrics) countOverflow() {
	if m == nil {
		return
	}
	if m.overflow == nil {
		m.overflow = m.reg.Counter("verifier.overflow_dropped")
	}
	m.overflow.Inc()
}

// IsAuthentic reports whether the packet at index has been authenticated.
func (v *Chained) IsAuthentic(index uint32) bool { return v.authentic[index] }

// PendingCount returns the number of packets still buffered unverified.
func (v *Chained) PendingCount() int { return len(v.buffered) }

// Stats returns a snapshot of the verifier's counters.
func (v *Chained) Stats() Stats { return v.stats }
