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
// The engine is observable through its Recorder, as every scheme's verifier
// is: it always measures arrival-to-authentication latency (the paper's
// receiver delay) into Stats.TimeToAuth, and additionally writes per-packet
// trace records and registry metrics when its Env carries a trace sink
// (Spans) or Metrics registry (see internal/obs).
package verifier

import (
	"errors"
	"fmt"
	"slices"
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

// Stats summarizes a verifier's lifetime: its counters and its latency
// histogram.
type Stats struct {
	Counts

	// TimeToAuth is the histogram of arrival-to-authentication latency
	// over this verifier's authenticated packets, in nanoseconds — the
	// measured receiver delay of the paper, recorded inside the engine
	// so transport-driven runs get receiver-delay numbers too.
	TimeToAuth obs.HistogramData
}

// Counts is the counter half of Stats, small enough to keep one per
// simulated receiver.
type Counts struct {
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

	// CacheHits counts packets accepted straight from a SharedCache
	// (content digest already proven authentic by another subscriber).
	CacheHits int
	// PendingSignature counts signature packets currently awaiting a
	// deferred batch-verify verdict.
	PendingSignature int
}

// bufferedPacket is one message-buffer entry: the packet plus its arrival
// time, kept so the cascade can measure arrival-to-authentication latency.
type bufferedPacket struct {
	p       *packet.Packet
	arrived time.Time
}

// slot is everything the verifier knows about one packet index: the two
// buffers of the paper's receiver are indexed by a packet's position 1..n in
// the block's dependence graph, so both are columns of one array.
type slot struct {
	// digest is the hash-buffer entry, valid once trusted: the digest the
	// packet at this index must have, carried by an authenticated packet.
	digest    crypto.Digest
	trusted   bool
	authentic bool
	// held is the message-buffer entry: the packet that arrived ahead of
	// its authentication information (held.p nil when there is none).
	// Signature packets awaiting a deferred verdict are parked on the queue
	// instead, every copy apart, so a forged one racing ahead of the
	// genuine one cannot occupy the index and starve it.
	held bufferedPacket
}

// Chained verifies one block of a hash-chained scheme. The zero Chained is
// ready for Reset, the only way it is configured.
type Chained struct {
	blockID uint64
	n       uint32
	pub     crypto.Verifier
	// rec holds the configuration, fixed until the next Reset.
	rec Recorder

	slots []slot // by packet index; slot 0 is unused
	// held counts the message-buffer entries and hashDepth the trusted
	// digests whose packet is not yet authentic: the depths of the two
	// buffers, kept as the slots change instead of recounted.
	held      int
	hashDepth int
	queue     []*packet.Packet // the cascade's work list, reused across accepts
	// events is what Accept returns: the verifier's, valid until its next
	// Ingest, Reset or deferred verdict.
	events []Event
	// queueBuf backs queue until a cascade outgrows it, so a short block's
	// verifier is two allocations: itself and its slots.
	queueBuf [8]*packet.Packet
}

// Reset makes v a fresh verifier for one block of n packets signed by the
// holder of pub, configured by env, keeping the storage it already has.
// Nothing of the previous block survives: a signature still parked on the
// old Env's BatchQ must not resolve into v afterwards, so reset only a
// verifier with Stats().PendingSignature == 0 or whose queue is dropped.
func (v *Chained) Reset(blockID uint64, n int, pub crypto.Verifier, env Env) error {
	if n < 1 {
		return fmt.Errorf("verifier: block size %d must be >= 1", n)
	}
	if pub == nil {
		return errors.New("verifier: nil public key")
	}
	if err := env.Validate(); err != nil {
		return err
	}
	v.blockID, v.n, v.pub = blockID, uint32(n), pub
	v.rec.Reset(env)
	v.slots = slices.Grow(v.slots[:0], n+1)[:n+1]
	clear(v.slots)
	v.held, v.hashDepth = 0, 0
	if v.queue == nil {
		v.queue = v.queueBuf[:0]
	}
	clear(v.events)
	v.events = v.events[:0]
	return nil
}

// Ingest processes one arriving packet at the given receiver-local time.
// The timestamp orders buffering against authentication for the receiver-
// delay measurement; hash-chained schemes have no timing condition of
// their own. The returned events are v's, valid until its next Ingest,
// Reset or deferred verdict.
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
	v.rec.Received()
	s := &v.slots[p.Index]
	if s.authentic || s.held.p != nil {
		v.rec.Duplicate()
		return nil, nil
	}

	if v.rec.Cached(p) {
		return v.Accept(p, at), nil
	}
	switch {
	case len(p.Signature) > 0:
		// A digest the Env already holds is the memo key's hash of the
		// signed content, so a memoised check hashes nothing.
		var sum *crypto.Digest
		if d, ok := v.rec.env.Digests[p]; ok {
			sum = &d
		}
		if !v.rec.Signature(v, v.pub, p, v.rec.contentOf(p), sum, at, v.held) {
			return nil, nil
		}
	case !s.trusted:
		if v.rec.Hold(p, at, v.held) {
			s.held = bufferedPacket{p: p, arrived: at}
			v.held++
		}
		return nil, nil
	case v.rec.digestOf(p) != s.digest:
		v.rec.Rejected(p, at, "digest_mismatch")
		return nil, nil
	}
	return v.Accept(p, at), nil
}

// authenticate marks p, which arrived at arrived, authentic at time at.
func (v *Chained) authenticate(p *packet.Packet, arrived, at time.Time) {
	s := &v.slots[p.Index]
	s.authentic = true
	if s.trusted {
		v.hashDepth--
	}
	v.unhold(s)
	v.rec.Authenticated(p, arrived, at)
}

// unhold empties s's message-buffer entry, if it has one.
func (v *Chained) unhold(s *slot) {
	if s.held.p != nil {
		s.held = bufferedPacket{}
		v.held--
	}
}

// Authentic implements Acceptor.
func (v *Chained) Authentic(p *packet.Packet) bool { return v.slots[p.Index].authentic }

// Accept implements Acceptor: it marks p authentic, trusts its carried
// hashes, and cascades into the message buffer. It returns the
// authentication events in cascade order, in v's events buffer.
func (v *Chained) Accept(p *packet.Packet, at time.Time) []Event {
	events := append(v.events[:0], Event{Index: p.Index, Payload: p.Payload})
	v.authenticate(p, at, at)

	queue := append(v.queue[:0], p)
	for head := 0; head < len(queue); head++ {
		for _, h := range queue[head].Hashes {
			// A hash for an index outside the block can authenticate
			// nothing: it is not trusted and not counted.
			if h.TargetIndex < 1 || h.TargetIndex > v.n {
				continue
			}
			s := &v.slots[h.TargetIndex]
			if s.trusted {
				continue
			}
			s.trusted, s.digest = true, h.Digest
			if !s.authentic {
				v.hashDepth++
			}
			waiting := s.held
			if waiting.p == nil {
				if !s.authentic {
					v.rec.hashBuffered(p.BlockID, h.TargetIndex, at)
				}
				continue
			}
			if v.rec.digestOf(waiting.p) != h.Digest {
				v.rec.Rejected(waiting.p, at, "digest_mismatch")
				v.unhold(s)
				continue
			}
			v.authenticate(waiting.p, waiting.arrived, at)
			events = append(events, Event{Index: waiting.p.Index, Payload: waiting.p.Payload})
			queue = append(queue, waiting.p)
		}
	}
	clear(queue)
	v.queue = queue[:0]
	v.events = events
	v.rec.hashDepth(v.hashDepth)
	return events
}

// isAuthentic reports whether the packet at index has been authenticated.
func (v *Chained) isAuthentic(index uint32) bool {
	return index <= v.n && v.slots[index].authentic
}

// pendingCount returns the number of packets still buffered unverified.
func (v *Chained) pendingCount() int { return v.held }

// Stats returns a snapshot of the verifier's counters.
func (v *Chained) Stats() Stats { return v.rec.Stats() }
