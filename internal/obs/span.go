package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// SpanKind names one fact about a packet or block. There is one vocabulary
// for the whole stack. The serving tier's kinds follow a block in causal
// order: the sender authenticates it (push), the server emits it
// (shard_enqueue), the batch signer attaches the block root's signature
// (sign_attach), each packet is framed onto the wire (mux_write), stored
// and re-served by any relay on the way (relay_ingest, then the relay's own
// mux_write) and decoded on the receiver (decode). The simulator's kinds
// follow the paper's receiver model: a packet is sent, then per receiver
// dropped by the channel or delivered, possibly mutated or forged on the
// way. Every verifier, simulated or served, reports the rest: a packet is
// buffered awaiting authentication information, parked awaiting a deferred
// batched signature check and later resolved, and finally authenticated,
// rejected, dropped as TESLA-unsafe or discarded on buffer overflow.
type SpanKind string

const (
	// Serving tier, sender to receiver.
	SpanPush SpanKind = "push"
	// SpanShardEnqueue marks the server emitting the block: its ID
	// reserved, its immediate packets fanned out, its root handed to the
	// batch signer. The wire name predates the caller-runs server and is
	// kept so recorded traces still read.
	SpanShardEnqueue SpanKind = "shard_enqueue"
	SpanSignAttach   SpanKind = "sign_attach"
	SpanMuxWrite     SpanKind = "mux_write"
	SpanRelayIngest  SpanKind = "relay_ingest"
	SpanDecode       SpanKind = "decode"
	// Verifier (verifier.Recorder is the only emitter).
	SpanMsgBuffered     SpanKind = "msg_buffered"
	SpanHashBuffered    SpanKind = "hash_buffered"
	SpanOverflowDropped SpanKind = "overflow_dropped"
	SpanDeferredPark    SpanKind = "deferred_park"
	SpanSigResolve      SpanKind = "sig_resolve"
	SpanAuthenticate    SpanKind = "authenticate"
	SpanReject          SpanKind = "reject"
	SpanUnsafe          SpanKind = "unsafe"
	// Simulated network (netsim is the only emitter). run_meta leads a
	// run's trace with its identity, so offline tooling can interpret the
	// trace without the run's flags; it and sent are source-side, every
	// other kind belongs to the receiver in Receiver.
	SpanRunMeta   SpanKind = "run_meta"
	SpanSent      SpanKind = "sent"
	SpanDropped   SpanKind = "dropped"
	SpanDelivered SpanKind = "delivered"
	// Adversarial channel (fault injection): the channel mutated a delivery
	// in flight, injected a fabricated packet, or the verifier refused a
	// known-forged packet. A forged packet *authenticating* has no kind: it
	// is an invariant violation surfaced by the run's counters.
	SpanCorrupted      SpanKind = "corrupted"
	SpanForgedInjected SpanKind = "forged_injected"
	SpanForgedRejected SpanKind = "forged_rejected"
)

// spanTypeField is the value of the "type" JSON field on every trace
// line. Trace lines share files with other record types (a flight dump's
// header sections, stray stderr); ReadSpans takes the lines of this type
// and skips and counts every other.
const spanTypeField = "span"

// Span is the one trace record: one JSONL line per fact, whoever reports
// it. Zero-valued optional fields are elided from the encoding. Records of
// the same block share a trace ID (traceID is a pure function of stream
// and block), so sender- and receiver-side processes link causally with no
// wire changes.
type Span struct {
	// Type is always "span" on encoded records.
	Type string `json:"type"`
	// Trace is the causal trace ID: traceID(Stream, Block).
	Trace uint64 `json:"trace"`
	// Kind is the fact.
	Kind SpanKind `json:"kind"`
	// Stream is the mux stream ID (0 for single-stream pipelines).
	Stream uint64 `json:"stream"`
	// Block is the block ID the record belongs to.
	Block uint64 `json:"block"`
	// Index is the packet's authentication index, for packet-granular
	// kinds. Block-granular kinds leave it 0.
	Index uint32 `json:"index,omitempty"`
	// TimeNS is the record's wall (or simulated) time, nanoseconds since
	// the Unix epoch.
	TimeNS int64 `json:"t_ns,omitempty"`
	// DurNS is an optional duration: batch-sign root hold for sign_attach,
	// arrival-to-authentication latency — the paper's receiver delay,
	// measured — for authenticate.
	DurNS int64 `json:"dur_ns,omitempty"`
	// Reason qualifies a record: drops carry "loss" (channel), "late_join"
	// (receiver not yet subscribed) or, under fault injection, the mutation
	// that left the datagram undecodable; deliveries of non-genuine
	// arrivals carry the fault kind; rejections carry what failed
	// ("bad_signature", "digest_mismatch", ...), which is what diagnose
	// attributes culprits by.
	Reason string `json:"reason,omitempty"`
	// Receiver attributes the record to one simulated receiver (0-based).
	// The sink view stamps it; emitters leave it alone.
	Receiver int `json:"recv,omitempty"`
	// Wire is the 1-based send position of the packet on the wire; on
	// run_meta, the wire count.
	Wire int `json:"wire,omitempty"`
	// Depth is the message-buffer depth after a buffering transition.
	Depth int `json:"depth,omitempty"`
	// OutOfOrder marks a delivery that overtook a later-sent packet.
	OutOfOrder bool `json:"ooo,omitempty"`
	// Scheme names the scheme on run_meta.
	Scheme string `json:"scheme,omitempty"`
	// Root is, on run_meta, the wire index of the signature / bootstrap
	// packet (the packet whose loss severs every authentication path).
	Root uint32 `json:"root,omitempty"`
}

// traceID derives the causal trace ID for a block deterministically from
// (stream, block) — a splitmix64 finalizer over the pair, so sender and
// receiver sides compute the same ID independently and distinct blocks
// scatter across the ID space.
func traceID(stream, block uint64) uint64 {
	x := stream*0x9e3779b97f4a7c15 + block
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// TimeNS converts a time to the trace encoding, mapping the zero time to 0
// so synthetic simulation clocks near the epoch stay readable.
func TimeNS(at time.Time) int64 {
	if at.IsZero() {
		return 0
	}
	return at.UnixNano()
}

// SpanSink is the one trace sink. It keeps records in memory — the newest
// keep of them, all of them, or none — and optionally writes each through
// to a JSONL stream as it is recorded. Recording is mutex-serialized and
// safe for concurrent use, but a nil or disabled sink costs one branch (and
// one atomic load) per Record call, checked before any locking, so
// instrumented hot paths keep their calls compiled in unconditionally. All
// methods are nil-safe: a nil *SpanSink is the absent tracer, and because
// the type is concrete there is no typed-nil-in-interface to trip over.
type SpanSink struct {
	*sinkState
	// recv is the receiver this view stamps on its records.
	recv int
}

// sinkState is what every view of one sink shares.
type sinkState struct {
	off   atomic.Bool
	mu    sync.Mutex
	held  ring[Span]
	total int64 // records over the sink's lifetime
	w     *bufio.Writer
	c     io.Closer
	err   error // first write-through error
}

// KeepAll as NewSpanSink's keep retains every record.
const KeepAll = -1

// NewSpanSink returns an enabled sink that retains the newest keep records
// (KeepAll: every record; 0: none) and, when w is non-nil, also writes
// each record to w as one JSON line. If w is an io.Closer, Close closes it.
func NewSpanSink(keep int, w io.Writer) *SpanSink {
	st := &sinkState{held: newRing[Span](keep)}
	if w != nil {
		st.w = bufio.NewWriterSize(w, 1<<16)
		st.c, _ = w.(io.Closer)
	}
	return &SpanSink{sinkState: st}
}

// OpenTrace is the -trace flag of every tool: a sink writing through to
// the file at path, created up front so an unwritable path fails before the
// run has burned CPU. With an empty path the sink only keeps, and is nil
// when it would keep nothing.
func OpenTrace(path string, keep int) (*SpanSink, error) {
	if path == "" {
		if keep == 0 {
			return nil, nil
		}
		return NewSpanSink(keep, nil), nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace output unwritable: %w", err)
	}
	return NewSpanSink(keep, f), nil
}

// ForReceiver returns a view of the same sink that stamps recv on every
// record, so per-receiver components (verifiers) need not know which
// receiver they serve.
func (s *SpanSink) ForReceiver(recv int) *SpanSink {
	if s == nil {
		return nil
	}
	return &SpanSink{sinkState: s.sinkState, recv: recv}
}

// SetEnabled switches recording off or back on, for every view.
func (s *SpanSink) SetEnabled(on bool) {
	if s != nil {
		s.off.Store(!on)
	}
}

// Enabled reports whether Record currently records. Hot paths call this
// before assembling a Span.
func (s *SpanSink) Enabled() bool {
	return s != nil && !s.off.Load()
}

// Record records one fact. Type, Trace and Receiver are stamped here, so
// callers fill only what they know. A disabled or nil sink drops it.
func (s *SpanSink) Record(sp Span) {
	if !s.Enabled() {
		return
	}
	sp.Type = spanTypeField
	sp.Trace = traceID(sp.Stream, sp.Block)
	sp.Receiver = s.recv
	s.mu.Lock()
	s.held.push(sp)
	s.total++
	if s.w != nil && s.err == nil {
		var b []byte
		if b, s.err = json.Marshal(sp); s.err == nil {
			_, s.err = s.w.Write(append(b, '\n'))
		}
	}
	s.mu.Unlock()
}

// Total returns the number of records over the sink's lifetime, including
// those a bounded sink has evicted.
func (s *SpanSink) Total() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Snapshot copies the kept records oldest-first.
func (s *SpanSink) Snapshot() []Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.held.snapshot()
}

// Close flushes the write-through stream, closes it if it is a Closer, and
// returns the first error of the stream's lifetime.
func (s *SpanSink) Close() error {
	if s == nil || s.w == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); s.err == nil {
		s.err = err
	}
	if s.c != nil {
		if err := s.c.Close(); s.err == nil {
			s.err = err
		}
		s.c = nil
	}
	if s.err != nil {
		return fmt.Errorf("trace output: %w", s.err)
	}
	return nil
}

// writeSpansJSONL encodes spans one JSON object per line, the lines
// ReadSpans reads. Hand-built spans get their Type and Trace stamped.
func writeSpansJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		s.Type = spanTypeField
		if s.Trace == 0 {
			s.Trace = traceID(s.Stream, s.Block)
		}
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("obs: span: %w", err)
		}
	}
	return bw.Flush()
}

// ReadSpans decodes trace JSONL back into records. It is the only trace
// line decoder: lifecycle traces, daemon rings and flight dumps are all
// read here. Lines that are not trace records — damage, interleaved
// stderr, other record types sharing the stream (flight-dump headers, the
// pre-span event grammar) — are skipped and counted; only an I/O error (or
// a line over 1 MiB) is a hard error.
func ReadSpans(r io.Reader) (spans []Span, skipped int, err error) {
	if spans, skipped, err = readSpans(r, 1<<20, nil); err != nil {
		err = fmt.Errorf("obs: span: %w", err)
	}
	return spans, skipped, err
}

// readSpans is ReadSpans with a say for the caller over the well-formed
// lines of other types, which are otherwise skipped.
func readSpans(r io.Reader, maxLine int, other func(typ string, line []byte) bool) (spans []Span, skipped int, err error) {
	skipped, err = scanJSONL(r, maxLine, func(line []byte) bool {
		var s Span
		// A line of another type may clash with Span's field types; its
		// "type" is decoded all the same, and other decodes it again.
		bad := json.Unmarshal(line, &s)
		if s.Type != spanTypeField {
			return other != nil && s.Type != "" && other(s.Type, line)
		}
		if bad != nil || s.Kind == "" {
			return false
		}
		spans = append(spans, s)
		return true
	})
	return spans, skipped, err
}
