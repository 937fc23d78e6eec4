package verifier

import (
	"bytes"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/obs"
	"mcauth/internal/packet"
)

// Recorder is a verifier's ledger and the decisions its Env configures: the
// only code that counts into Stats, bumps the verifier.* instruments and
// writes trace records, and the one place that decides a signature
// (Signature: synchronously through Sigs or parked on BatchQ, then
// settled), delivers deferred events to Sink and looks a content digest up
// (Digests, then hashing). Every scheme's verifier
// holds one by value and reports each fact to it once, so all six schemes
// are observed through the same sinks under the same names, one record per
// fact, decide through the same code, and keep only the state their
// protocol needs. It takes everything from the Env it was last Reset with;
// with the zero Env it fills Stats and decides synchronously, uncached.
// Like the verifier that owns it, it is not safe for concurrent use.
type Recorder struct {
	env   Env
	stats Stats
	// vs and content stage signature checks and content hashing; they keep
	// their storage across Resets.
	vs      crypto.VerifyScratch
	content []byte

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
		env:           env,
		vs:            r.vs,
		content:       r.content[:0],
		authenticated: reg.Counter("verifier.authenticated"),
		rejected:      reg.Counter("verifier.rejected"),
		duplicates:    reg.Counter("verifier.duplicates"),
		msgHighWater:  reg.Histogram("verifier.msg_buffer_high_water"),
		hashHighWater: reg.Histogram("verifier.hash_buffer_high_water"),
		timeToAuth:    reg.Histogram("verifier.time_to_auth_ns"),
	}
}

// Acceptor is the protocol state a deferred signature verdict acts on:
// Signature settles a parked packet through it once the queue resolves.
type Acceptor interface {
	// Authentic reports whether p's index is authenticated already.
	Authentic(p *packet.Packet) bool
	// Accept authenticates p, whose signature verified, as of at, and
	// returns the events that produced, in the verifier's own buffer.
	Accept(p *packet.Packet, at time.Time) []Event
}

// digestOf returns p's content digest: looked up in Digests, and hashed
// here when it is not there.
func (r *Recorder) digestOf(p *packet.Packet) crypto.Digest {
	if d, ok := r.env.Digests[p]; ok {
		return d
	}
	return crypto.HashBytes(r.contentOf(p))
}

// contentOf stages p's authenticated content in r's buffer, valid until
// the next call.
func (r *Recorder) contentOf(p *packet.Packet) []byte {
	r.content = p.AppendContent(r.content[:0])
	return r.content
}

// Verify returns pub's own verdict on sig over msg — the key decides: a
// crypto.BatchCapable key accepts a batch blob, a plain key refuses one —
// skipping the public-key operation when Sigs already holds the check
// (crypto.VerifyCached). sum is nil or the digest of msg.
func (r *Recorder) Verify(pub crypto.Verifier, msg []byte, sum *crypto.Digest, sig []byte) bool {
	return crypto.VerifyCached(r.env.Sigs, &r.vs, pub, msg, sum, sig)
}

// Check is the synchronous signature check of p, sig over msg under pub: it
// reports whether the key accepts it (Verify), counting a rejection when it
// does not.
func (r *Recorder) Check(pub crypto.Verifier, p *packet.Packet, msg []byte, sum *crypto.Digest, at time.Time) bool {
	if r.Verify(pub, msg, sum, p.Signature) {
		return true
	}
	r.Rejected(p, at, "bad_signature")
	return false
}

// Signature decides p's signature the one way every verifier does: Check,
// or with BatchQ, Defer. It reports whether p verified now, for the caller
// to accept. A deferred check is settled through a when the queue resolves
// (Settle), and the events of an accepted packet go to Sink (Deliver).
// held is as for Hold.
func (r *Recorder) Signature(a Acceptor, pub crypto.Verifier, p *packet.Packet, msg []byte, sum *crypto.Digest, at time.Time, held int) bool {
	if r.env.BatchQ == nil {
		return r.Check(pub, p, msg, sum, at)
	}
	r.Defer(pub, p, msg, at, held, func(ok bool) {
		if r.Settle(p, at, a.Authentic(p), ok) {
			r.Deliver(a.Accept(p, at))
		}
	})
	return false
}

// Deferring reports whether signature checks park on BatchQ.
func (r *Recorder) Deferring() bool { return r.env.BatchQ != nil }

// Defer parks p and enqueues its signature check, sig over msg under pub,
// on BatchQ; done receives the verdict when the queue resolves — on the
// ingest goroutine, and before Defer returns when the enqueue reaches the
// queue's threshold. It reports whether p was parked: false when the cap
// dropped it. Every parked packet is settled once (Settle).
func (r *Recorder) Defer(pub crypto.Verifier, p *packet.Packet, msg []byte, at time.Time, held int, done func(ok bool)) bool {
	if !r.Park(p, at, held) {
		return false
	}
	// The queue retains what it checks; msg may be the caller's scratch.
	r.env.BatchQ.Enqueue(pub, bytes.Clone(msg), p.Signature, done)
	return true
}

// Settle unparks p, whose deferred verdict ok is in, and counts what the
// verdict decides: a duplicate when the verifier authenticated p meanwhile
// (authentic), a rejection when the key refused it. It reports whether the
// caller is to accept p. p's arrival time stands in for the verdict time,
// so TimeToAuth keeps the caller's clock (batch-resolution latency is
// observable on the queue instead).
func (r *Recorder) Settle(p *packet.Packet, arrived time.Time, authentic, ok bool) bool {
	r.stats.PendingSignature--
	r.record(obs.SpanSigResolve, p.BlockID, p.Index, arrived, 0, 0, "")
	switch {
	case authentic:
		r.Duplicate()
	case !ok:
		r.Rejected(p, arrived, "bad_signature")
	default:
		return true
	}
	return false
}

// Deliver hands the events of a deferred verdict to Sink, the originating
// Ingest having long returned.
func (r *Recorder) Deliver(events []Event) {
	if len(events) > 0 && r.env.Sink != nil {
		r.env.Sink(events)
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

// Hold admits p to the message buffer, or drops it when the buffer is at its
// cap: on true the caller stores p, on false the drop is already counted.
// held is the number of packets the verifier holds besides parked
// signatures, which the Recorder counts itself, so the depth it caps,
// tracks the high-water mark of and traces is every packet awaiting
// authentication information.
func (r *Recorder) Hold(p *packet.Packet, at time.Time, held int) bool {
	depth := held + r.stats.PendingSignature
	if r.env.MaxBuffered > 0 && depth >= r.env.MaxBuffered {
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
// with one Settle.
func (r *Recorder) Park(p *packet.Packet, at time.Time, held int) bool {
	if !r.Hold(p, at, held) {
		return false
	}
	r.stats.PendingSignature++
	r.record(obs.SpanDeferredPark, p.BlockID, p.Index, at, 0, 0, "")
	return true
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
// authentic at at: the receiver-delay observation and the authenticate
// record.
func (r *Recorder) Authenticated(p *packet.Packet, arrived, at time.Time) {
	r.stats.Authenticated++
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
		*c = r.env.Metrics.Counter(name)
	}
	(*c).Inc()
}

// record writes the one trace record of a fact when a sink is attached and
// enabled.
func (r *Recorder) record(kind obs.SpanKind, block uint64, index uint32, at time.Time, dur time.Duration, depth int, reason string) {
	if !r.env.Spans.Enabled() {
		return
	}
	r.env.Spans.Record(obs.Span{
		Kind:   kind,
		Stream: r.env.StreamID,
		Block:  block,
		Index:  index,
		TimeNS: obs.TimeNS(at),
		DurNS:  dur.Nanoseconds(),
		Reason: reason,
		Depth:  depth,
	})
}
