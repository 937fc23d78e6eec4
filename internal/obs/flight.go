package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Flight-recorder JSONL header record types. Every line a dump writes
// carries a "type" field, so a dump is a valid mixed JSONL stream: ReadSpans
// picks the trace records out of it, skipping and counting these headers,
// and ReadFlightDump reassembles the whole artifact.
const (
	flightTypeMeta    = "flight_meta"
	flightTypeMetrics = "flight_metrics"
	flightTypeSLO     = "flight_slo"
	flightTypeFault   = "fault"
)

// FaultEvent is one noteworthy incident in the recorder's timeline: a
// chaos kill/restart, an SLO budget exhaustion, a panic, an operator
// signal.
type FaultEvent struct {
	Type   string `json:"type"` // always "fault" when encoded
	TimeNS int64  `json:"t_ns"`
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// FlightMeta is the dump's header line.
type FlightMeta struct {
	Type string `json:"type"` // always "flight_meta"
	// Reason names the dump trigger: "panic", "chaos_kill", "sigusr1",
	// "slo_budget_exhausted", ...
	Reason   string `json:"reason"`
	AtUnixNS int64  `json:"at_unix_ns"`
	// Spans is the buffered span count written; SpanTotal the lifetime
	// recorded count (the difference is what the ring evicted).
	Spans     int   `json:"spans"`
	SpanTotal int64 `json:"span_total"`
	Faults    int   `json:"faults"`
	Snapshots int   `json:"snapshots"`
}

type flightMetricsLine struct {
	Type     string   `json:"type"`
	AtUnixNS int64    `json:"at_unix_ns"`
	Metrics  Snapshot `json:"metrics"`
}

type flightSLOLine struct {
	Type string    `json:"type"`
	SLO  SLOStatus `json:"slo"`
}

// FlightConfig wires a recorder to the telemetry it preserves. Any field
// may be nil; the dump simply omits that section.
type FlightConfig struct {
	// Spans is the live trace sink; Dump snapshots it at dump time.
	Spans *SpanSink
	// Registry is snapshotted once per NoteSnapshot and once at Dump.
	Registry *Registry
	// SLO contributes the per-stream budget evaluation at dump time.
	SLO *SLOTracker
	// MaxFaults bounds the fault-event ring (default 256).
	MaxFaults int
	// MaxSnapshots bounds the periodic metric-snapshot ring (default 16).
	MaxSnapshots int
	// Clock overrides the time source (tests).
	Clock func() time.Time
}

// FlightRecorder keeps a bounded in-memory record of recent telemetry —
// spans, metric snapshots, fault events — and serializes it to one
// self-contained JSONL post-mortem artifact on demand. It is cheap to
// keep armed for the whole life of a daemon: nothing is written anywhere
// until Dump. All methods are nil-safe and concurrency-safe.
type FlightRecorder struct {
	cfg FlightConfig

	mu     sync.Mutex
	faults ring[FaultEvent]
	snaps  ring[TimedSnapshot]
}

// NewFlightRecorder builds a recorder over cfg.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if cfg.MaxFaults <= 0 {
		cfg.MaxFaults = 256
	}
	if cfg.MaxSnapshots <= 0 {
		cfg.MaxSnapshots = 16
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &FlightRecorder{
		cfg:    cfg,
		faults: newRing[FaultEvent](cfg.MaxFaults),
		snaps:  newRing[TimedSnapshot](cfg.MaxSnapshots),
	}
}

// NoteFault appends one fault event, evicting the oldest when full.
func (fr *FlightRecorder) NoteFault(kind, detail string) {
	if fr == nil {
		return
	}
	e := FaultEvent{Type: flightTypeFault, TimeNS: fr.cfg.Clock().UnixNano(), Kind: kind, Detail: detail}
	fr.mu.Lock()
	fr.faults.push(e)
	fr.mu.Unlock()
}

// NoteSnapshot captures the registry now into the snapshot ring, evicting
// the oldest when full. Call it on a periodic cadence so the dump shows
// how metrics evolved up to the incident, not just the terminal state.
func (fr *FlightRecorder) NoteSnapshot() {
	if fr == nil || fr.cfg.Registry == nil {
		return
	}
	t := TimedSnapshot{AtUnixNS: fr.cfg.Clock().UnixNano(), Metrics: fr.cfg.Registry.Snapshot()}
	fr.mu.Lock()
	fr.snaps.push(t)
	fr.mu.Unlock()
}

// faultCount returns the number of buffered fault events.
func (fr *FlightRecorder) faultCount() int {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return len(fr.faults.buf)
}

// Dump serializes the recorder's state as JSONL: one flight_meta header,
// the metric-snapshot series (plus one terminal snapshot taken now), the
// SLO evaluation, the fault timeline, then every buffered span
// oldest-first. reason is recorded in the header.
func (fr *FlightRecorder) Dump(w io.Writer, reason string) error {
	if fr == nil {
		return nil
	}
	now := fr.cfg.Clock()
	if fr.cfg.Registry != nil {
		fr.NoteSnapshot() // terminal at-incident state
	}
	fr.mu.Lock()
	faults, snaps := fr.faults.snapshot(), fr.snaps.snapshot()
	fr.mu.Unlock()
	spans := fr.cfg.Spans.Snapshot()
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	meta := FlightMeta{
		Type:      flightTypeMeta,
		Reason:    reason,
		AtUnixNS:  now.UnixNano(),
		Spans:     len(spans),
		SpanTotal: fr.cfg.Spans.Total(),
		Faults:    len(faults),
		Snapshots: len(snaps),
	}
	if err := enc.Encode(meta); err != nil {
		return fmt.Errorf("obs: flight: %w", err)
	}
	for _, s := range snaps {
		if err := enc.Encode(flightMetricsLine{Type: flightTypeMetrics, AtUnixNS: s.AtUnixNS, Metrics: s.Metrics}); err != nil {
			return fmt.Errorf("obs: flight: %w", err)
		}
	}
	if fr.cfg.SLO != nil {
		if err := enc.Encode(flightSLOLine{Type: flightTypeSLO, SLO: fr.cfg.SLO.status()}); err != nil {
			return fmt.Errorf("obs: flight: %w", err)
		}
	}
	for _, f := range faults {
		f.Type = flightTypeFault
		if err := enc.Encode(f); err != nil {
			return fmt.Errorf("obs: flight: %w", err)
		}
	}
	// bufio reuses a writer that is already big enough, so this appends to
	// bw and flushes it.
	return writeSpansJSONL(bw, spans)
}

// DumpFile writes the dump to path (truncating an earlier dump: the
// freshest post-mortem wins), syncing before close so the artifact
// survives the process dying right after.
func (fr *FlightRecorder) DumpFile(path, reason string) error {
	if fr == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fr.Dump(f, reason); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// FlightDump is a parsed post-mortem artifact.
type FlightDump struct {
	Meta      FlightMeta
	Snapshots []TimedSnapshot
	SLO       *SLOStatus
	Faults    []FaultEvent
	Spans     []Span
}

// ReadFlightDump parses a dump back. Damaged or foreign lines are skipped
// and counted, like every other JSONL reader here; a stream with no
// flight_meta line fails, since it is then not a flight dump at all.
func ReadFlightDump(r io.Reader) (*FlightDump, int, error) {
	var (
		d       FlightDump
		gotMeta bool
	)
	spans, skipped, err := readSpans(r, 1<<24, func(typ string, b []byte) bool {
		switch typ {
		case flightTypeMeta:
			if json.Unmarshal(b, &d.Meta) != nil {
				return false
			}
			gotMeta = true
		case flightTypeMetrics:
			var l flightMetricsLine
			if json.Unmarshal(b, &l) != nil {
				return false
			}
			d.Snapshots = append(d.Snapshots, TimedSnapshot{AtUnixNS: l.AtUnixNS, Metrics: l.Metrics})
		case flightTypeSLO:
			var l flightSLOLine
			if json.Unmarshal(b, &l) != nil {
				return false
			}
			d.SLO = &l.SLO
		case flightTypeFault:
			var f FaultEvent
			if json.Unmarshal(b, &f) != nil {
				return false
			}
			d.Faults = append(d.Faults, f)
		default:
			return false
		}
		return true
	})
	if err != nil {
		return nil, skipped, fmt.Errorf("obs: flight: %w", err)
	}
	if !gotMeta {
		return nil, skipped, fmt.Errorf("obs: flight: no flight_meta record (not a flight dump?)")
	}
	d.Spans = spans
	return &d, skipped, nil
}
