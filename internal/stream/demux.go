package stream

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/obs"
	"mcauth/internal/packet"
	"mcauth/internal/verifier"
)

// StreamAuthenticated is one verified message delivered by a Demux,
// tagged with the stream it belongs to.
type StreamAuthenticated struct {
	StreamID uint64
	Authenticated
}

// demuxTotals aggregates a Demux's lifetime counters.
type demuxTotals struct {
	ActiveStreams  int
	EvictedStreams int
	// RejectedStreams counts packets dropped because the per-stream
	// receiver factory refused the stream ID (unknown stream).
	RejectedStreams int
}

// Demux routes wire packets from many multiplexed streams (identified by
// the transport mux framing's 64-bit stream ID) to per-stream Receivers,
// mirroring what Receiver does for blocks within one stream. Stream state
// is created on demand by the factory and bounded: when more than
// maxStreams are live, the least recently active stream is evicted — a
// subscriber tracking many senders cannot be ballooned by stream-ID
// floods.
type Demux struct {
	newReceiver func(streamID uint64) (*Receiver, error)
	maxStreams  int
	receivers   map[uint64]*Receiver
	// order lists the live streams by first contact. Cross-stream walks
	// (DrainDeferred, evictColdest) follow it, never map order, so one
	// trace always yields one event sequence.
	order      []liveStream
	lastActive map[uint64]int64 // tick of most recent packet, for eviction
	tick       int64
	totals     demuxTotals
	// env holds what the demux adds to the verifier environment of every
	// receiver the factory creates from now on: Cache, BatchQ and Sigs (see
	// SetVerifyFastPath) and Spans (see SetSpans), keyed per receiver by
	// its transport stream ID.
	env verifier.Env
	// orphaned holds deferred output of streams that were closed or
	// evicted before anyone drained it; the next DrainDeferred returns it
	// first.
	orphaned []StreamAuthenticated
}

// liveStream is one entry of Demux.order.
type liveStream struct {
	id uint64
	r  *Receiver
}

// NewDemux creates a demultiplexer keeping at most maxStreams live
// streams. The factory builds the verifier stack for a stream the first
// time one of its packets arrives; returning an error rejects the stream
// (counted, not fatal), which is how a subscriber restricts itself to an
// allow-list of stream IDs.
func NewDemux(newReceiver func(streamID uint64) (*Receiver, error), maxStreams int) (*Demux, error) {
	if newReceiver == nil {
		return nil, errors.New("stream: nil receiver factory")
	}
	if maxStreams < 1 {
		return nil, fmt.Errorf("stream: maxStreams %d must be >= 1", maxStreams)
	}
	return &Demux{
		newReceiver: newReceiver,
		maxStreams:  maxStreams,
		receivers:   make(map[uint64]*Receiver),
		lastActive:  make(map[uint64]int64),
	}, nil
}

// SetVerifyFastPath attaches the receiver fast path to every stream
// receiver created from now on: cache (when non-nil) shares proven-
// authentic packet digests across all of the demux's streams, keyed by
// the transport stream ID, and q (when non-nil) defers signature checks
// to a shared batch-verify queue, whose signature cache also becomes the
// receivers' synchronous memo (verifier.Env.Sigs) so that a check a
// verifier runs itself — authtree's per-waiter fallback — shares it.
// Deferred verdicts that resolve while a different stream's packet is being
// ingested are collected via DrainDeferred. Either argument may be nil to
// enable only the other.
func (d *Demux) SetVerifyFastPath(cache *verifier.SharedCache, q *crypto.BatchVerifyQueue) {
	d.env.Cache = cache
	d.env.BatchQ = q
	d.env.Sigs = nil
	if q != nil {
		d.env.Sigs = q.Cache()
	}
}

// SetSpans attaches a causal span ring to every stream receiver created
// from now on, keyed by its transport stream ID (see verifier.Env.Spans).
func (d *Demux) SetSpans(r *obs.SpanSink) {
	d.env.Spans = r
}

// DrainDeferred collects messages authenticated by deferred batch-verify
// verdicts: first those of streams closed since the last call, then every
// live stream's (see Receiver.DrainDeferred) in first-contact order. Call
// it after resolving the batch-verify queue directly.
func (d *Demux) DrainDeferred() []StreamAuthenticated {
	out := d.orphaned
	d.orphaned = nil
	for _, s := range d.order {
		for _, a := range s.r.DrainDeferred() {
			out = append(out, StreamAuthenticated{StreamID: s.id, Authenticated: a})
		}
	}
	return out
}

// Ingest routes one decoded packet to its stream's receiver, returning
// any messages it newly authenticated.
func (d *Demux) Ingest(streamID uint64, p *packet.Packet, at time.Time) ([]StreamAuthenticated, error) {
	r, err := d.receiver(streamID)
	if err != nil || r == nil {
		return nil, err
	}
	auths, err := r.Ingest(p, at)
	if err != nil {
		return nil, err
	}
	out := make([]StreamAuthenticated, len(auths))
	for i, a := range auths {
		out[i] = StreamAuthenticated{StreamID: streamID, Authenticated: a}
	}
	return out, nil
}

// receiver returns the stream's receiver, creating (and bounding) state
// on first contact. A nil receiver with nil error means the stream was
// rejected by the factory.
func (d *Demux) receiver(streamID uint64) (*Receiver, error) {
	d.tick++
	if r, ok := d.receivers[streamID]; ok {
		d.lastActive[streamID] = d.tick
		return r, nil
	}
	r, err := d.newReceiver(streamID)
	if err != nil {
		d.totals.RejectedStreams++
		return nil, nil
	}
	if r == nil {
		return nil, fmt.Errorf("stream: factory returned nil receiver for stream %d", streamID)
	}
	// What the demux has set overrides the factory's choice; the rest of
	// the factory's environment stands.
	r.env.StreamID = streamID
	if d.env.Cache != nil {
		r.env.Cache = d.env.Cache
	}
	if d.env.BatchQ != nil {
		r.env.BatchQ = d.env.BatchQ
	}
	if d.env.Sigs != nil {
		r.env.Sigs = d.env.Sigs
	}
	if d.env.Spans != nil {
		r.env.Spans = d.env.Spans
	}
	d.receivers[streamID] = r
	d.order = append(d.order, liveStream{streamID, r})
	d.lastActive[streamID] = d.tick
	for len(d.receivers) > d.maxStreams {
		d.evictColdest()
	}
	return r, nil
}

func (d *Demux) evictColdest() {
	coldest := d.order[0].id
	for _, s := range d.order[1:] {
		if d.lastActive[s.id] < d.lastActive[coldest] {
			coldest = s.id
		}
	}
	d.closeStream(coldest)
	d.totals.EvictedStreams++
}

// Receiver exposes a live stream's receiver (nil when unknown/evicted),
// for per-stream stats.
func (d *Demux) Receiver(streamID uint64) *Receiver { return d.receivers[streamID] }

// closeStream drops a stream's receiver state (an explicit leave, as opposed to
// LRU eviction), reporting whether the stream was live. A later packet for
// the stream re-joins it through the factory like any newcomer. Verdicts
// the stream still has parked in the batch-verify queue are settled first
// (the stream-level mirror of Receiver.retireVerifier) and its deferred
// output is kept for the next DrainDeferred: once the receiver is out of
// d.order nothing would collect them.
func (d *Demux) closeStream(streamID uint64) bool {
	r, ok := d.receivers[streamID]
	if !ok {
		return false
	}
	if r.env.BatchQ != nil && r.Totals().PendingSignature > 0 {
		r.env.BatchQ.Resolve()
	}
	for _, a := range r.DrainDeferred() {
		d.orphaned = append(d.orphaned, StreamAuthenticated{StreamID: streamID, Authenticated: a})
	}
	delete(d.receivers, streamID)
	delete(d.lastActive, streamID)
	d.order = slices.DeleteFunc(d.order, func(s liveStream) bool { return s.id == streamID })
	return true
}

// ResumePoints reports, per live stream, the block ID replay should
// resume from after a reconnect (see Receiver.ResumeFrom) — 0 for streams
// that have authenticated nothing yet, meaning "replay everything
// retained". The map is freshly allocated; callers may keep it.
func (d *Demux) ResumePoints() map[uint64]uint64 {
	out := make(map[uint64]uint64, len(d.receivers))
	for id, r := range d.receivers {
		from, ok := r.ResumeFrom()
		if !ok {
			from = 0
		}
		out[id] = from
	}
	return out
}

// StreamIDs lists the live streams in ascending order.
func (d *Demux) StreamIDs() []uint64 {
	out := make([]uint64, 0, len(d.receivers))
	for id := range d.receivers {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// counters returns the demux-level counters; per-stream counters live on
// the individual Receivers.
func (d *Demux) counters() demuxTotals {
	t := d.totals
	t.ActiveStreams = len(d.receivers)
	return t
}
