// Package stream provides the long-lived multicast session layer on top of
// per-block schemes: the paper's setting is a stream "whose lifetime could
// be very long, during which recipients join and leave frequently", so
// packets are authenticated block by block. The Sender chops an unbounded
// message sequence into blocks and authenticates each; the Receiver
// demultiplexes interleaved wire packets into per-block verifiers, lets
// late joiners synchronize at the next block boundary, and bounds its
// buffering (the paper notes receiver buffering is a denial-of-service
// surface) by evicting the oldest incomplete blocks.
package stream

import (
	"errors"
	"fmt"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/obs"
	"mcauth/internal/packet"
	"mcauth/internal/scheme"
	"mcauth/internal/verifier"
)

// Sender accumulates messages and emits authenticated wire packets one
// block at a time.
type Sender struct {
	s       scheme.Scheme
	blockID uint64
	pending [][]byte
	// Flush-deadline state (see SetFlushAfter / Due in deferred.go):
	// oldestPending timestamps the first message of the filling block.
	flushAfter    time.Duration
	oldestPending time.Time
	// Causal span tracing (see SetSpans): each emitted block records a
	// "push" span, the root of its end-to-end trace.
	spans      *obs.SpanSink
	spanStream uint64
}

// NewSender creates a sender starting at the given block ID.
func NewSender(s scheme.Scheme, startBlock uint64) (*Sender, error) {
	if s == nil {
		return nil, errors.New("stream: nil scheme")
	}
	return &Sender{s: s, blockID: startBlock}, nil
}

// SetSpans attaches a causal span ring: every block this sender emits
// records a "push" span keyed by (streamID, block ID), the root of the
// block's end-to-end trace (emit, sign attach, mux write, and the
// receiver-side spans all derive the same trace ID). nil detaches.
func (snd *Sender) SetSpans(r *obs.SpanSink, streamID uint64) {
	snd.spans = r
	snd.spanStream = streamID
}

// spanPush records the block-emitted span.
func (snd *Sender) spanPush(blockID uint64) {
	if !snd.spans.Enabled() {
		return
	}
	snd.spans.Record(obs.Span{
		Kind:   obs.SpanPush,
		Stream: snd.spanStream,
		Block:  blockID,
		TimeNS: time.Now().UnixNano(),
	})
}

// Push appends one message. When the message completes a block, the
// block's wire packets are returned (nil otherwise).
func (snd *Sender) Push(payload []byte) ([]*packet.Packet, error) {
	snd.pending = append(snd.pending, payload)
	if len(snd.pending) < snd.s.BlockSize() {
		return nil, nil
	}
	return snd.emit()
}

// Pending returns the number of messages waiting for a block to fill.
func (snd *Sender) Pending() int { return len(snd.pending) }

// NextBlockID returns the ID the next emitted block will carry.
func (snd *Sender) NextBlockID() uint64 { return snd.blockID }

// Flush pads a partial block with empty payloads and emits it; it returns
// (nil, nil) when nothing is pending. Receivers see the padding as
// authenticated empty messages and can discard them.
func (snd *Sender) Flush() ([]*packet.Packet, error) {
	if len(snd.pending) == 0 {
		return nil, nil
	}
	for len(snd.pending) < snd.s.BlockSize() {
		snd.pending = append(snd.pending, nil)
	}
	return snd.emit()
}

func (snd *Sender) emit() ([]*packet.Packet, error) {
	pkts, err := snd.s.Authenticate(snd.blockID, snd.pending)
	if err != nil {
		return nil, fmt.Errorf("stream: block %d: %w", snd.blockID, err)
	}
	snd.spanPush(snd.blockID)
	snd.blockID++
	snd.pending = nil
	snd.oldestPending = time.Time{}
	return pkts, nil
}

// Authenticated is one verified message delivered by a Receiver.
type Authenticated struct {
	BlockID uint64
	Index   uint32
	Payload []byte
}

// Totals aggregates a Receiver's lifetime counters.
type Totals struct {
	WireBytes     int
	Packets       int
	DecodeErrors  int
	Authenticated int
	Rejected      int
	Unsafe        int
	Duplicates    int
	// InvalidPackets counts well-formed datagrams the block verifier
	// refused outright (out-of-range index, block mismatch) — adversarial
	// input, tolerated and counted rather than treated as fatal.
	InvalidPackets int
	EvictedBlocks  int
	ActiveBlocks   int
	// PendingSignature is the number of packets currently parked awaiting
	// a deferred batch-verify verdict (a gauge, not a counter).
	PendingSignature int
	// TimeToAuth merges the per-block verifiers' arrival-to-
	// authentication histograms — the measured receiver delay of a
	// transport-driven run, in nanoseconds.
	TimeToAuth obs.HistogramData
}

// Receiver demultiplexes interleaved wire packets into per-block
// verifiers.
type Receiver struct {
	s         scheme.Scheme
	maxBlocks int
	verifiers map[uint64]scheme.Verifier
	order     []uint64 // insertion order, for eviction
	// spare is the last retired block verifier with no verdict parked, Reset
	// for the next block instead of building one (see retireVerifier).
	spare scheme.Verifier
	// closed remembers recently evicted/closed blocks so their late
	// packets are dropped instead of resurrecting verification state.
	// It is itself bounded (closedOrder) so an unbounded stream does
	// not leak one tombstone per block.
	closed      map[uint64]bool
	closedOrder []uint64
	// totals holds the receiver-level counters plus the folded stats of
	// every retired block verifier (see retireVerifier); live verifiers are
	// added on demand by Totals, never pushed here per packet.
	totals Totals
	// env is the template every new block verifier is built from (see
	// SetEnv and verifier.Env); Ingest stamps the block's Sink onto a copy.
	// Its Spans ring also takes a "decode" span per routed packet.
	env verifier.Env
	// deferredOut accumulates messages authenticated by deferred batch
	// verdicts; Ingest drains it into its return value, and DrainDeferred
	// collects verdicts delivered by an explicit queue Resolve.
	deferredOut []Authenticated
	// maxAuthed / hasAuthed track the highest block that has authenticated
	// at least one message — the receiver's resume cursor (see ResumeFrom).
	maxAuthed uint64
	hasAuthed bool
}

// closedTombstonesPerBlock sizes the tombstone set relative to the live
// window: late packets older than several windows are indistinguishable
// from a brand-new block and will simply allocate (and then starve) a
// fresh verifier.
const closedTombstonesPerBlock = 8

// NewReceiver creates a receiver that keeps at most maxBlocks blocks'
// verification state live at once.
func NewReceiver(s scheme.Scheme, maxBlocks int) (*Receiver, error) {
	if s == nil {
		return nil, errors.New("stream: nil scheme")
	}
	if maxBlocks < 1 {
		return nil, fmt.Errorf("stream: maxBlocks %d must be >= 1", maxBlocks)
	}
	return &Receiver{
		s:         s,
		maxBlocks: maxBlocks,
		verifiers: make(map[uint64]scheme.Verifier),
		closed:    make(map[uint64]bool),
	}, nil
}

// SetEnv replaces the environment every block verifier created from now
// on is built with (see verifier.Env for the fields; live blocks keep the
// one they were built with). env.Sink is ignored: with a BatchQ the
// receiver supplies its own per block, which is how deferred verdicts
// reach DrainDeferred. With a MaxBuffered cap, the block-count bound caps
// the receiver's total buffering at maxBlocks * MaxBuffered packets under
// any flood.
func (r *Receiver) SetEnv(env verifier.Env) error {
	if err := env.Validate(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	r.env = env
	return nil
}

// SetBatchVerify sets the environment's BatchQ alone: block verifiers
// created from now on park signature checks on q. Verdicts resolve when q
// fills (auto-resolve during some later Ingest) or when the caller invokes
// q.Resolve directly — after which DrainDeferred returns the newly
// authenticated messages. The queue must only be resolved on the goroutine
// that calls Ingest.
func (r *Receiver) SetBatchVerify(q *crypto.BatchVerifyQueue) {
	r.env.BatchQ = q
}

// DrainDeferred returns (and clears) messages authenticated by deferred
// batch-verify verdicts since the last Ingest or DrainDeferred call. Call
// it after resolving the batch-verify queue directly.
func (r *Receiver) DrainDeferred() []Authenticated {
	out := r.deferredOut
	r.deferredOut = nil
	return out
}

// noteDeferred is the sink handed to deferred block verifiers: it records
// messages authenticated after their Ingest already returned.
func (r *Receiver) noteDeferred(blockID uint64, events []verifier.Event) {
	for _, e := range events {
		r.totals.Authenticated++
		r.deferredOut = append(r.deferredOut, Authenticated{BlockID: blockID, Index: e.Index, Payload: e.Payload})
	}
	if len(events) > 0 && (!r.hasAuthed || blockID > r.maxAuthed) {
		r.maxAuthed = blockID
		r.hasAuthed = true
	}
}

// IngestWire decodes one wire datagram and routes it to its block's
// verifier, returning any messages it newly authenticated. Malformed
// datagrams are counted, not fatal.
func (r *Receiver) IngestWire(wire []byte, at time.Time) ([]Authenticated, error) {
	r.totals.WireBytes += len(wire)
	p, err := packet.Decode(wire)
	if err != nil {
		r.totals.DecodeErrors++
		return nil, nil
	}
	return r.Ingest(p, at)
}

// Ingest routes an already-decoded packet. Adversarial input — packets the
// block verifier refuses outright — is counted in Totals.InvalidPackets and
// tolerated: a forged datagram must never be able to stop the stream.
func (r *Receiver) Ingest(p *packet.Packet, at time.Time) ([]Authenticated, error) {
	if p == nil {
		return nil, errors.New("stream: nil packet")
	}
	r.totals.Packets++
	if r.env.Spans.Enabled() {
		r.env.Spans.Record(obs.Span{
			Kind:   obs.SpanDecode,
			Stream: r.env.StreamID,
			Block:  p.BlockID,
			Index:  p.Index,
			TimeNS: obs.TimeNS(at),
		})
	}
	if r.closed[p.BlockID] {
		// The block's state was evicted; late packets are dropped.
		return nil, nil
	}
	v, ok := r.verifiers[p.BlockID]
	if !ok {
		env := r.env
		if env.BatchQ != nil {
			blockID := p.BlockID
			env.Sink = func(events []verifier.Event) { r.noteDeferred(blockID, events) }
		}
		var err error
		if v, r.spare = r.spare, nil; v != nil {
			err = v.Reset(env)
		} else {
			v, err = r.s.NewVerifier(env)
		}
		if err != nil {
			return nil, fmt.Errorf("stream: block %d: %w", p.BlockID, err)
		}
		r.verifiers[p.BlockID] = v
		r.order = append(r.order, p.BlockID)
		r.evictIfNeeded()
	}
	events, err := v.Ingest(p, at)
	if err != nil {
		r.totals.InvalidPackets++
		return nil, nil
	}
	out := make([]Authenticated, 0, len(events))
	for _, e := range events {
		r.totals.Authenticated++
		out = append(out, Authenticated{BlockID: p.BlockID, Index: e.Index, Payload: e.Payload})
	}
	if len(out) > 0 && (!r.hasAuthed || p.BlockID > r.maxAuthed) {
		r.maxAuthed = p.BlockID
		r.hasAuthed = true
	}
	// Deferred verdicts resolved during this Ingest ride out with it.
	if len(r.deferredOut) > 0 {
		out = append(out, r.deferredOut...)
		r.deferredOut = nil
	}
	return out, nil
}

// ResumeFrom returns the block ID a reconnecting receiver should request
// replay from: the highest block that has authenticated anything. That
// block is itself re-requested — it may be only partially delivered, and
// replaying what did arrive costs only duplicates the verifiers already
// count and discard, so the cursor rounds down rather than ever skipping
// a possibly-incomplete block. ok is false while nothing has
// authenticated yet (request everything).
func (r *Receiver) ResumeFrom() (uint64, bool) {
	if !r.hasAuthed {
		return 0, false
	}
	return r.maxAuthed, true
}

func (r *Receiver) evictIfNeeded() {
	for len(r.verifiers) > r.maxBlocks {
		oldest := r.order[0]
		r.order = r.order[1:]
		r.retireVerifier(oldest)
		r.markClosed(oldest)
		r.totals.EvictedBlocks++
	}
}

// fold adds one block verifier's lifetime counters to the totals.
func (t *Totals) fold(st *verifier.Stats) {
	t.Rejected += st.Rejected
	t.Unsafe += st.Unsafe
	t.Duplicates += st.Duplicates
	t.TimeToAuth.Merge(st.TimeToAuth)
}

// retireVerifier folds a departing block verifier's stats into the lifetime
// totals, exactly once, before dropping its state. Verdicts still parked in
// the batch-verify queue are settled first: once the verifier is gone
// nothing would count them. The verifier becomes the spare unless a verdict
// is still parked on it (a queue other than the current Env's), whose
// callback would otherwise resolve into the next block.
func (r *Receiver) retireVerifier(blockID uint64) {
	v, ok := r.verifiers[blockID]
	if !ok {
		return
	}
	st := v.Stats()
	if st.PendingSignature > 0 && r.env.BatchQ != nil {
		r.env.BatchQ.Resolve()
		st = v.Stats()
	}
	r.totals.fold(&st)
	delete(r.verifiers, blockID)
	if st.PendingSignature == 0 {
		r.spare = v
	}
}

func (r *Receiver) markClosed(blockID uint64) {
	if r.closed[blockID] {
		return
	}
	r.closed[blockID] = true
	r.closedOrder = append(r.closedOrder, blockID)
	for len(r.closedOrder) > closedTombstonesPerBlock*r.maxBlocks {
		delete(r.closed, r.closedOrder[0])
		r.closedOrder = r.closedOrder[1:]
	}
}

// CloseBlock releases a block's verification state early (e.g. once the
// application has all it needs); later packets for it are dropped.
func (r *Receiver) CloseBlock(blockID uint64) {
	if _, ok := r.verifiers[blockID]; !ok {
		return
	}
	r.retireVerifier(blockID)
	for i, id := range r.order {
		if id == blockID {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	r.markClosed(blockID)
}

// Totals returns the receiver's lifetime counters: its own, the retired
// blocks' folded stats, and one read of every live verifier at call time.
// It does not change the receiver.
func (r *Receiver) Totals() Totals {
	t := r.totals
	t.ActiveBlocks = len(r.verifiers)
	for _, v := range r.verifiers {
		st := v.Stats()
		t.fold(&st)
		t.PendingSignature += st.PendingSignature
	}
	return t
}
