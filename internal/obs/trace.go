package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// EventType names one step of a packet's lifecycle. The set mirrors the
// paper's receiver model: a packet is sent, then per receiver either
// dropped by the channel or delivered (possibly out of order), then inside
// the verifier it is buffered awaiting authentication information,
// authenticated, rejected as tampered, dropped as TESLA-unsafe, or
// discarded on message-buffer overflow.
type EventType string

const (
	EventSent            EventType = "sent"
	EventDropped         EventType = "dropped"
	EventDelivered       EventType = "delivered"
	EventMsgBuffered     EventType = "msg_buffered"
	EventHashBuffered    EventType = "hash_buffered"
	EventAuthenticated   EventType = "authenticated"
	EventRejected        EventType = "rejected"
	EventUnsafe          EventType = "unsafe"
	EventOverflowDropped EventType = "overflow_dropped"
	// Adversarial-channel events (fault injection): the channel mutated a
	// delivery in flight, injected a fabricated packet, or the verifier
	// rejected a known-forged packet. A forged packet *authenticating*
	// has no event — it is an invariant violation surfaced by the run's
	// counters, never a normal lifecycle step.
	EventCorrupted      EventType = "corrupted"
	EventForgedInjected EventType = "forged_injected"
	EventForgedRejected EventType = "forged_rejected"
	// EventRunMeta is the first record of a netsim trace: one source-side
	// event carrying the run's identity (scheme name, wire count in Wire,
	// signature wire index in Root) so offline tooling can interpret the
	// trace without re-supplying the run's flags.
	EventRunMeta EventType = "run_meta"
)

// Event is one JSONL trace record. Zero-valued optional fields are elided
// from the encoding.
type Event struct {
	Type EventType `json:"type"`
	// Receiver attributes the event to one simulated receiver (0-based);
	// -1 marks source-side events (sent).
	Receiver int `json:"recv"`
	// Wire is the 1-based send position of the packet on the wire.
	Wire int `json:"wire,omitempty"`
	// Index is the packet's authentication index (packet.Packet.Index).
	Index uint32 `json:"index,omitempty"`
	// Block is the packet's block ID.
	Block uint64 `json:"block,omitempty"`
	// TimeNS is the event's (simulated or wall) time, nanoseconds since
	// the Unix epoch.
	TimeNS int64 `json:"t_ns,omitempty"`
	// LatencyNS is, for authenticated events, the arrival-to-
	// authentication delay — the paper's receiver delay, measured.
	LatencyNS int64 `json:"latency_ns,omitempty"`
	// Depth is the buffer depth after a buffering transition.
	Depth int `json:"depth,omitempty"`
	// OutOfOrder marks a delivery that overtook a later-sent packet.
	OutOfOrder bool `json:"ooo,omitempty"`
	// Reason qualifies events: drops carry "loss" (channel), "late_join"
	// (receiver not yet subscribed), or — under fault injection —
	// "corrupted" / "truncated" (the mutation left the datagram
	// undecodable); deliveries of non-genuine arrivals carry the fault
	// kind; rejections carry what failed ("bad_signature",
	// "digest_mismatch", ...).
	Reason string `json:"reason,omitempty"`
	// Scheme names the scheme on run_meta events.
	Scheme string `json:"scheme,omitempty"`
	// Root is, on run_meta events, the wire index of the signature /
	// bootstrap packet (the packet whose loss severs every packet's
	// authentication path).
	Root uint32 `json:"root,omitempty"`
}

// Tracer consumes lifecycle events. Implementations must be safe for
// concurrent Emit calls (netsim receivers run in parallel). Instrumented
// code holds a Tracer and checks it against nil before building an Event,
// so a disabled trace costs one predictable branch.
type Tracer interface {
	Emit(e Event)
}

// ReceiverTracer stamps every event with a fixed receiver ID before
// forwarding, so per-receiver components (verifiers) need not know which
// receiver they serve.
type ReceiverTracer struct {
	T        Tracer
	Receiver int
}

// Emit implements Tracer.
func (rt ReceiverTracer) Emit(e Event) {
	e.Receiver = rt.Receiver
	rt.T.Emit(e)
}

// JSONLTracer writes one JSON object per line. Emit is mutex-serialized;
// Close flushes and reports the first write error encountered.
type JSONLTracer struct {
	mu     sync.Mutex
	w      *bufio.Writer
	closer io.Closer
	n      int64
	err    error
}

// NewJSONLTracer wraps w. If w is also an io.Closer, Close closes it.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	t := &JSONLTracer{w: bufio.NewWriterSize(w, 1<<16)}
	if c, ok := w.(io.Closer); ok {
		t.closer = c
	}
	return t
}

// Emit implements Tracer.
func (t *JSONLTracer) Emit(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(b); err != nil {
		t.err = err
		return
	}
	if err := t.w.WriteByte('\n'); err != nil {
		t.err = err
		return
	}
	t.n++
}

// Events returns the number of events written so far.
func (t *JSONLTracer) Events() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Close flushes buffered output (closing the underlying writer if it is a
// Closer) and returns the first error hit during the trace's lifetime.
func (t *JSONLTracer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ferr := t.w.Flush(); t.err == nil {
		t.err = ferr
	}
	if t.closer != nil {
		if cerr := t.closer.Close(); t.err == nil {
			t.err = cerr
		}
		t.closer = nil
	}
	return t.err
}

// ReadJSONL decodes a JSONL trace back into events — the read half of the
// round trip, used by tests and analysis tooling. Lines that do not decode
// as events are skipped and counted rather than failing the whole read (see
// scanJSONL); only an I/O error (or a line exceeding the 1 MiB scanner
// limit) is a hard error.
func ReadJSONL(r io.Reader) (events []Event, skipped int, err error) {
	skipped, err = scanJSONL(r, 1<<20, func(line []byte) bool {
		var e Event
		if json.Unmarshal(line, &e) != nil || e.Type == "" {
			return false
		}
		events = append(events, e)
		return true
	})
	if err != nil {
		return events, skipped, fmt.Errorf("obs: trace: %w", err)
	}
	return events, skipped, nil
}

// MultiTracer fans every event out to each member tracer, so one run can
// feed a JSONL file and an in-memory diagnostics buffer at once.
type MultiTracer []Tracer

// Emit implements Tracer.
func (m MultiTracer) Emit(e Event) {
	for _, t := range m {
		t.Emit(e)
	}
}

// MemTracer buffers events in memory, for tests and for in-process
// consumers like the diagnose report built by `mcsim -report`.
type MemTracer struct {
	mu     sync.Mutex
	events []Event
}

// Emit implements Tracer.
func (t *MemTracer) Emit(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Events returns a copy of everything emitted so far.
func (t *MemTracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// TimeNS converts a time to the trace encoding, mapping the zero time to 0
// so synthetic simulation clocks near the epoch stay readable.
func TimeNS(at time.Time) int64 {
	if at.IsZero() {
		return 0
	}
	return at.UnixNano()
}
