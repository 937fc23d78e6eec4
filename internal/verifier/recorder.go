package verifier

import (
	"time"

	"mcauth/internal/obs"
	"mcauth/internal/packet"
)

// Recorder is a verifier's ledger: the only code that counts into Stats,
// bumps the verifier.* instruments, publishes authentications to the shared
// cache and writes trace records. Every scheme's verifier holds one by
// value and reports each fact to it once, so all six schemes are observed
// through the same sinks under the same names, one record per fact, and a
// verifier keeps only the state its protocol needs. It takes everything from
// the Env it was last Reset with; with the zero Env it fills Stats and
// nothing else. Like the verifier that owns it, it is not safe for
// concurrent use.
type Recorder struct {
	stream uint64
	cap    int
	cache  *SharedCache
	spans  *obs.SpanSink
	reg    *obs.Registry
	stats  Stats

	// Instruments are looked up once at construction so Ingest never takes
	// the registry's lock; on a nil registry they are nil and no-op.
	authenticated *obs.Counter
	rejected      *obs.Counter
	duplicates    *obs.Counter
	msgHighWater  *obs.Histogram
	hashHighWater *obs.Histogram
	timeToAuth    *obs.Histogram
	// overflow and unsafe register on first use, so the metrics dump of a
	// run that never drops a packet stays free of them.
	overflow *obs.Counter
	unsafe   *obs.Counter
}

// Reset makes r the empty ledger of a verifier configured by env, in place.
func (r *Recorder) Reset(env Env) {
	reg := env.Metrics
	*r = Recorder{
		stream:        env.StreamID,
		cap:           env.MaxBuffered,
		cache:         env.Cache,
		spans:         env.Spans,
		reg:           reg,
		authenticated: reg.Counter("verifier.authenticated"),
		rejected:      reg.Counter("verifier.rejected"),
		duplicates:    reg.Counter("verifier.duplicates"),
		msgHighWater:  reg.Histogram("verifier.msg_buffer_high_water"),
		hashHighWater: reg.Histogram("verifier.hash_buffer_high_water"),
		timeToAuth:    reg.Histogram("verifier.time_to_auth_ns"),
	}
}

// Stats returns a snapshot of the counters.
func (r *Recorder) Stats() Stats { return r.stats }

// Received counts one ingested packet.
func (r *Recorder) Received() { r.stats.Received++ }

// Duplicate counts a packet ingested (or resolved) more than once.
func (r *Recorder) Duplicate() {
	r.stats.Duplicates++
	r.duplicates.Inc()
}

// CacheHit counts a packet accepted straight from the shared cache.
func (r *Recorder) CacheHit() { r.stats.CacheHits++ }

// Hold admits p to the message buffer, or drops it when the buffer is at its
// cap: on true the caller stores p, on false the drop is already counted.
// held is the number of packets the verifier holds besides parked
// signatures, which the Recorder counts itself, so the depth it caps,
// tracks the high-water mark of and traces is every packet awaiting
// authentication information.
func (r *Recorder) Hold(p *packet.Packet, at time.Time, held int) bool {
	depth := held + r.stats.PendingSignature
	if r.cap > 0 && depth >= r.cap {
		r.stats.DroppedOverflow++
		r.countLazily(&r.overflow, "verifier.overflow_dropped")
		r.record(obs.SpanOverflowDropped, p.BlockID, p.Index, at, 0, depth, "")
		return false
	}
	depth++
	if depth > r.stats.MsgBufferHighWater {
		r.stats.MsgBufferHighWater = depth
		r.msgHighWater.Observe(int64(depth))
	}
	r.record(obs.SpanMsgBuffered, p.BlockID, p.Index, at, 0, depth, "")
	return true
}

// Park is Hold for a signature packet awaiting a deferred verdict: parked
// packets count against the cap like any buffered packet (pending-signature
// floods are attacker reachable). Every Park that returns true is paired
// with one Resolved.
func (r *Recorder) Park(p *packet.Packet, at time.Time, held int) bool {
	if !r.Hold(p, at, held) {
		return false
	}
	r.stats.PendingSignature++
	r.record(obs.SpanDeferredPark, p.BlockID, p.Index, at, 0, 0, "")
	return true
}

// Resolved unparks p when its deferred verdict is in; the caller reports
// the verdict itself next (Authenticated, Rejected or Duplicate).
func (r *Recorder) Resolved(p *packet.Packet, at time.Time) {
	r.stats.PendingSignature--
	r.record(obs.SpanSigResolve, p.BlockID, p.Index, at, 0, 0, "")
}

// hashBuffered traces a trusted digest that arrived ahead of its packet,
// carried by a packet of the given block.
func (r *Recorder) hashBuffered(block uint64, index uint32, at time.Time) {
	r.record(obs.SpanHashBuffered, block, index, at, 0, 0, "")
}

// hashDepth tracks the hash buffer's high-water mark: depth is the number of
// trusted digests currently held for packets not yet authenticated.
func (r *Recorder) hashDepth(depth int) {
	if depth > r.stats.HashBufferHighWater {
		r.stats.HashBufferHighWater = depth
		r.hashHighWater.Observe(int64(depth))
	}
}

// Authenticated records that p, which arrived at arrived, was proven
// authentic at at: the receiver-delay observation, the shared-cache
// publication and the authenticate record.
func (r *Recorder) Authenticated(p *packet.Packet, arrived, at time.Time) {
	r.stats.Authenticated++
	if r.cache != nil {
		r.cache.MarkAuthentic(r.stream, p.BlockID, r.cache.DigestOf(p))
	}
	latency := at.Sub(arrived)
	if latency < 0 {
		latency = 0
	}
	r.stats.TimeToAuth.Observe(latency.Nanoseconds())
	r.authenticated.Inc()
	r.timeToAuth.Observe(latency.Nanoseconds())
	r.record(obs.SpanAuthenticate, p.BlockID, p.Index, at, latency, 0, "")
}

// Rejected records a failed signature, digest, MAC or key check. p is nil
// when what failed belongs to no one packet (a disclosed TESLA key off the
// chain); the record then carries no index or block.
func (r *Recorder) Rejected(p *packet.Packet, at time.Time, reason string) {
	r.stats.Rejected++
	r.rejected.Inc()
	if p == nil {
		r.record(obs.SpanReject, 0, 0, at, 0, 0, reason)
		return
	}
	r.record(obs.SpanReject, p.BlockID, p.Index, at, 0, 0, reason)
}

// Unsafe records a TESLA packet dropped by the safety condition: it arrived
// after its key's disclosure deadline.
func (r *Recorder) Unsafe(p *packet.Packet, at time.Time) {
	r.stats.Unsafe++
	r.countLazily(&r.unsafe, "verifier.unsafe")
	r.record(obs.SpanUnsafe, p.BlockID, p.Index, at, 0, 0, "deadline")
}

// countLazily bumps a counter that registers on first use.
func (r *Recorder) countLazily(c **obs.Counter, name string) {
	if *c == nil {
		*c = r.reg.Counter(name)
	}
	(*c).Inc()
}

// record writes the one trace record of a fact when a sink is attached and
// enabled.
func (r *Recorder) record(kind obs.SpanKind, block uint64, index uint32, at time.Time, dur time.Duration, depth int, reason string) {
	if !r.spans.Enabled() {
		return
	}
	r.spans.Record(obs.Span{
		Kind:   kind,
		Stream: r.stream,
		Block:  block,
		Index:  index,
		TimeNS: obs.TimeNS(at),
		DurNS:  dur.Nanoseconds(),
		Reason: reason,
		Depth:  depth,
	})
}
