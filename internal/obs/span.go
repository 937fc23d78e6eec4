package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// SpanKind names one step of the serving-tier block lifecycle, in causal
// order: the sender emits a block (push), a server shard queues it
// (shard_enqueue), the batch signer attaches the block root's signature
// (sign_attach), each packet is framed onto the wire (mux_write), stored
// and re-served by any relay on the way (relay_ingest, then the relay's
// own mux_write), decoded on the receiver (decode), possibly parked
// awaiting a deferred batched signature check (deferred_park) and later
// resolved (sig_resolve), and finally authenticated or rejected. The reject reason uses the same
// taxonomy as trace events ("bad_signature", "digest_mismatch", ...), so
// spans join against diagnose culprit attribution.
type SpanKind string

const (
	SpanPush         SpanKind = "push"
	SpanShardEnqueue SpanKind = "shard_enqueue"
	SpanSignAttach   SpanKind = "sign_attach"
	SpanMuxWrite     SpanKind = "mux_write"
	SpanRelayIngest  SpanKind = "relay_ingest"
	SpanDecode       SpanKind = "decode"
	SpanDeferredPark SpanKind = "deferred_park"
	SpanSigResolve   SpanKind = "sig_resolve"
	SpanAuthenticate SpanKind = "authenticate"
	SpanReject       SpanKind = "reject"
)

// SpanTypeField is the value of the "type" JSON field on every span line.
// It keeps span JSONL readable by the PR 1 trace reader (ReadJSONL skips
// lines whose type it does not know, counting them as skipped) while
// letting span-aware tooling pick span lines out of a mixed stream.
const SpanTypeField = "span"

// Span is one JSONL span record. Sender- and receiver-side spans of the
// same block share a trace ID (TraceID is a pure function of stream and
// block), so the two processes link causally with no wire changes.
type Span struct {
	// Type is always "span" on encoded records.
	Type string `json:"type"`
	// Trace is the causal trace ID: TraceID(Stream, Block).
	Trace uint64 `json:"trace"`
	// Kind is the lifecycle step.
	Kind SpanKind `json:"kind"`
	// Stream is the mux stream ID (0 for single-stream pipelines).
	Stream uint64 `json:"stream"`
	// Block is the block ID the span belongs to.
	Block uint64 `json:"block"`
	// Index is the packet's authentication index, for packet-granular
	// kinds (mux_write, decode, deferred_park, sig_resolve, authenticate,
	// reject). Block-granular kinds leave it 0.
	Index uint32 `json:"index,omitempty"`
	// TimeNS is the span's wall (or simulated) time, nanoseconds since
	// the Unix epoch.
	TimeNS int64 `json:"t_ns,omitempty"`
	// DurNS is an optional duration: batch-sign root hold for
	// sign_attach, arrival-to-authentication latency for authenticate.
	DurNS int64 `json:"dur_ns,omitempty"`
	// Reason qualifies reject spans with what failed.
	Reason string `json:"reason,omitempty"`
}

// TraceID derives the causal trace ID for a block deterministically from
// (stream, block) — a splitmix64 finalizer over the pair, so sender and
// receiver sides compute the same ID independently and distinct blocks
// scatter across the ID space.
func TraceID(stream, block uint64) uint64 {
	x := stream*0x9e3779b97f4a7c15 + block
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// SpanRing is a bounded in-memory span buffer: the newest Capacity spans
// are kept, older ones are overwritten. Recording is mutex-serialized, but
// a disabled ring costs exactly one atomic load per Record call — the
// check happens before any locking — so instrumented hot paths can keep
// their span calls compiled in unconditionally. All methods are nil-safe;
// a nil *SpanRing is the fully-disabled tracer.
type SpanRing struct {
	on    atomic.Bool
	mu    sync.Mutex
	held  ring[Span]
	total int64 // spans recorded over the ring's lifetime
}

// DefaultSpanCapacity bounds rings constructed with a non-positive
// capacity.
const DefaultSpanCapacity = 4096

// NewSpanRing returns a ring holding up to capacity spans (the default
// when capacity is not positive). The ring starts disabled.
func NewSpanRing(capacity int) *SpanRing {
	if capacity <= 0 {
		capacity = DefaultSpanCapacity
	}
	return &SpanRing{held: newRing[Span](capacity)}
}

// SetEnabled switches recording on or off. Off is the zero state.
func (r *SpanRing) SetEnabled(on bool) {
	if r == nil {
		return
	}
	r.on.Store(on)
}

// Enabled reports whether Record currently stores spans. Hot paths call
// this before assembling a Span so the disabled cost is one atomic load.
func (r *SpanRing) Enabled() bool {
	return r != nil && r.on.Load()
}

// Record stores one span, evicting the oldest when full. The span's Type
// and Trace fields are stamped here so callers only fill the lifecycle
// fields. A disabled or nil ring drops the span.
func (r *SpanRing) Record(s Span) {
	if !r.Enabled() {
		return
	}
	s.Type = SpanTypeField
	s.Trace = TraceID(s.Stream, s.Block)
	r.mu.Lock()
	r.held.push(s)
	r.total++
	r.mu.Unlock()
}

// Add records a span stamped with the current wall time. Convenience for
// call sites without a flow-supplied timestamp.
func (r *SpanRing) Add(kind SpanKind, stream, block uint64, index uint32, dur time.Duration, reason string) {
	if !r.Enabled() {
		return
	}
	r.Record(Span{
		Kind:   kind,
		Stream: stream,
		Block:  block,
		Index:  index,
		TimeNS: time.Now().UnixNano(),
		DurNS:  dur.Nanoseconds(),
		Reason: reason,
	})
}

// Len returns the number of buffered spans.
func (r *SpanRing) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.held.buf)
}

// Total returns the number of spans recorded over the ring's lifetime,
// including those already evicted.
func (r *SpanRing) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot copies the buffered spans oldest-first.
func (r *SpanRing) Snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.held.snapshot()
}

// WriteJSONL writes the buffered spans oldest-first, one JSON object per
// line — the same shape ReadSpans and the flight recorder consume.
func (r *SpanRing) WriteJSONL(w io.Writer) error {
	return WriteSpansJSONL(w, r.Snapshot())
}

// WriteSpansJSONL encodes spans one JSON object per line.
func WriteSpansJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if s.Type == "" {
			s.Type = SpanTypeField
		}
		if s.Trace == 0 {
			s.Trace = TraceID(s.Stream, s.Block)
		}
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("obs: span: %w", err)
		}
	}
	return bw.Flush()
}

// ReadSpans decodes span JSONL back into spans. Lines that are not span
// records — damage, interleaved stderr, or other record types sharing the
// stream (trace events, flight-recorder headers) — are skipped and
// counted, mirroring ReadJSONL's tolerance. Only an I/O error (or an
// over-long line) is a hard error.
func ReadSpans(r io.Reader) (spans []Span, skipped int, err error) {
	skipped, err = scanJSONL(r, 1<<20, func(line []byte) bool {
		var s Span
		if json.Unmarshal(line, &s) != nil || s.Type != SpanTypeField || s.Kind == "" {
			return false
		}
		spans = append(spans, s)
		return true
	})
	if err != nil {
		return spans, skipped, fmt.Errorf("obs: span: %w", err)
	}
	return spans, skipped, nil
}
