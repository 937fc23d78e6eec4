package verifier

import (
	"fmt"

	"mcauth/internal/crypto"
	"mcauth/internal/obs"
	"mcauth/internal/packet"
)

// Env is everything a receiver-side verifier can be configured with,
// supplied at construction or Reset (scheme.Verifier.Reset, Chained.Reset)
// and fixed until the next Reset. The zero Env is the synchronous,
// unbounded, unobserved verifier. A scheme ignores the behaviour fields that
// have no meaning for it (TESLA has no signature per packet to defer, so no
// BatchQ; the per-packet-signature schemes buffer nothing outside deferred
// mode, so MaxBuffered binds only there); schemetest.EnvConformance pins
// which. The observation fields — Spans, Metrics — no scheme can ignore:
// every verifier reports through a Recorder built from its Env, and decides
// through it: the signature check and its deferral, and the digest lookup
// are the Recorder's, written once. No field changes what a verifier
// accepts: the key decides (Sigs), and what a verifier authenticates
// depends on the packets it received alone.
type Env struct {
	// StreamID identifies the stream — and therefore the signing key —
	// the verifier serves. It keys Spans (sender- and receiver-side spans
	// of one block join on TraceID(stream, block)), so verifiers of
	// different streams sharing a sink must differ in it.
	StreamID uint64
	// MaxBuffered caps the packets held while awaiting authentication
	// information (parked signatures included); overflow is dropped and
	// counted in Stats.DroppedOverflow. Zero is unbounded; negative is a
	// construction error.
	MaxBuffered int
	// Sigs memoises the synchronous signature check of every scheme's
	// verifier: a check whose (public key, SHA-256 of the signed content,
	// signature bytes) already succeeded skips the public-key operation.
	// nil is the same code reaching pub.Verify. Either way the verdict is
	// the key's own (crypto.VerifyCached): a crypto.BatchCapable key
	// accepts a batch blob, a plain key refuses one, whatever the memo
	// holds. It is sound to share among any verifiers whatever, simulated
	// receivers of one run included: only successes are stored (see
	// crypto.SigCache), the memoised function is pure, and a hit says only
	// "this signature over these bytes is valid", which every holder of
	// the public key may learn for itself. What a verifier authenticates
	// therefore still depends on its own received packets alone, as the
	// dependence-graph model requires: the memo carries no verifier's
	// chain conclusions to another. The serving tier passes the SigCache
	// behind its BatchQ, so a synchronous check and a deferred one each
	// settle what the other already paid for.
	Sigs *crypto.SigCache
	// Digests holds content digests computed before the verifiers were
	// built, by packet pointer: a hash-chained verifier looks a packet's
	// digest up here before hashing it, and reuses it as the Sigs key of a
	// signature packet. It is never written after construction, so any
	// number of verifiers read it without a lock. A simulation fills it
	// with the genuine wire packets of the run, hashed once instead of once
	// per receiver; that is sound for the reason Sigs is: the memoised
	// function is pure and a lookup says only what the holder of that very
	// packet would compute itself. A forged, corrupted or re-decoded
	// delivery is a different pointer, misses, and is hashed for real.
	Digests DigestMemo
	// BatchQ defers signature checks: Ingest parks signature-carrying
	// packets and enqueues the check; when the queue resolves (threshold
	// or explicit Resolve, always on the ingest goroutine — verifiers are
	// not thread-safe) accepted packets authenticate and their events go
	// to Sink, the originating Ingest having already returned. It defers
	// the verdict without changing it: the queue decides as the key does
	// (Sigs), so a verifier authenticates the same packets with BatchQ as
	// without.
	BatchQ *crypto.BatchVerifyQueue
	// Sink receives the events of deferred verdicts. stream.Receiver owns
	// it (it stamps one per block); other callers set it alongside BatchQ.
	// The slice it is passed is the verifier's, as Ingest's result is:
	// valid until the verifier's next Ingest, Reset or deferred verdict,
	// so a Sink that keeps events copies them.
	Sink func([]Event)
	// Spans receives one trace record per fact the verifier reports
	// (msg_buffered, hash_buffered, overflow_dropped, deferred_park,
	// sig_resolve, authenticate, reject, unsafe): the verification tail of
	// a block's causal trace. The sink is nil-safe and checks an atomic
	// enable flag first, so an attached but disabled sink costs one
	// predictable branch per fact. A simulated receiver passes its own
	// view (SpanSink.ForReceiver), which stamps the receiver.
	Spans *obs.SpanSink
	// Metrics receives the verifier.* instruments.
	Metrics *obs.Registry
}

// DigestMemo maps packets to their content digests (Env.Digests). The key is
// the pointer, not the content: an entry is right only while its packet is
// not modified, as wire packets are not once authenticated.
type DigestMemo map[*packet.Packet]crypto.Digest

// NewDigestMemo hashes each distinct packet of pkts once.
func NewDigestMemo(pkts []*packet.Packet) DigestMemo {
	m := make(DigestMemo, len(pkts))
	for _, p := range pkts {
		if _, ok := m[p]; !ok {
			m[p] = p.Digest()
		}
	}
	return m
}

// Validate reports configuration no verifier accepts.
func (e Env) Validate() error {
	if e.MaxBuffered < 0 {
		return fmt.Errorf("verifier: negative buffer cap %d", e.MaxBuffered)
	}
	return nil
}
