// Telemetry: the causal span ring, per-stream SLO tracker, and failure
// flight recorder, wired together behind mcserved's -span-buf, -slo-* and
// -flight flags. One Telemetry value is shared by every role a run plays
// (daemon, receiver, relay, chaos harness), so an in-process soak records
// both halves of each block's lifecycle into one ring and a single dump
// carries the full sender→authenticate trace.
package serve

import (
	"fmt"
	"os"
	"sync"
	"time"

	"mcauth/internal/obs"
	"mcauth/internal/stream"
)

// TelemetryConfig carries the telemetry flags.
type TelemetryConfig struct {
	SpanBuf int    // span ring capacity (0 disables tracing)
	Flight  string // where Dump writes the post-mortem ("" = stderr)
	// SLOWindow is the sliding evaluation window; SLOP99 and SLOMinAuth are
	// the per-stream objectives (0 = none).
	SLOWindow, SLOP99 time.Duration
	SLOMinAuth        float64
}

// Telemetry bundles the observability substrate one mcserved process
// shares across its roles. A nil *Telemetry is inert: every method is a
// no-op, so call sites need no guards.
type Telemetry struct {
	spans  *obs.SpanSink
	slo    *obs.SLOTracker
	flight *obs.FlightRecorder
	reg    *obs.Registry

	// flightPath, when non-empty, is where dump writes the post-mortem.
	flightPath string

	// prev holds the per-stream receiver totals already folded into the
	// SLO tracker (feedSLO goroutine only).
	prev map[uint64]stream.Totals

	// sloRedOnce arms the budget-exhaustion dump: the first red window
	// Dumps, later ones don't spam.
	sloRedOnce sync.Once
}

// NewTelemetry builds the substrate the config asks for, or nil when
// every telemetry feature is off.
func NewTelemetry(c TelemetryConfig, reg *obs.Registry) *Telemetry {
	if c.SpanBuf <= 0 && c.Flight == "" && c.SLOP99 <= 0 && c.SLOMinAuth <= 0 {
		return nil
	}
	t := &Telemetry{reg: reg, flightPath: c.Flight, prev: make(map[uint64]stream.Totals)}
	if c.SpanBuf > 0 {
		t.spans = obs.NewSpanSink(c.SpanBuf, nil)
	}
	// The tracker always exists so /slo always answers; without -slo-p99
	// or -slo-min-auth it reports per-stream attempts and auth fraction
	// with no objectives (and can never go red).
	t.slo = obs.NewSLOTracker(obs.SLOConfig{
		Window:          c.SLOWindow,
		TimeToAuthP99:   c.SLOP99,
		MinAuthFraction: c.SLOMinAuth,
	})
	t.flight = obs.NewFlightRecorder(obs.FlightConfig{
		Spans:    t.spans,
		Registry: reg,
		SLO:      t.slo,
	})
	return t
}

// Spans returns the live trace sink (nil when tracing is off or t is nil)
// — safe to hand straight to SetSpans-style hooks, which are themselves
// nil-tolerant.
func (t *Telemetry) Spans() *obs.SpanSink {
	if t == nil {
		return nil
	}
	return t.spans
}

// SLO returns the per-stream SLO tracker behind /slo and /statusz (nil
// when t is nil).
func (t *Telemetry) SLO() *obs.SLOTracker {
	if t == nil {
		return nil
	}
	return t.slo
}

// NoteFault records one fault event into the flight ring.
func (t *Telemetry) NoteFault(kind, detail string) {
	if t == nil {
		return
	}
	t.flight.NoteFault(kind, detail)
}

// Dump writes the flight-recorder post-mortem to -flight (or stderr when
// no file was named), logging where it went.
func (t *Telemetry) Dump(reason string) {
	if t == nil || t.flight == nil {
		return
	}
	if t.flightPath == "" {
		_ = t.flight.Dump(os.Stderr, reason)
		return
	}
	if err := t.flight.DumpFile(t.flightPath, reason); err != nil {
		fmt.Fprintf(os.Stderr, "mcserved: flight dump: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "mcserved: flight dump (%s) written to %s\n", reason, t.flightPath)
}

// RecoverDump is the panic hook: deferred at the top of run, it dumps
// the flight record before re-panicking so the crash artifact survives.
func (t *Telemetry) RecoverDump() {
	if r := recover(); r != nil {
		t.NoteFault("panic", fmt.Sprint(r))
		t.Dump("panic")
		panic(r)
	}
}

// sloFeedEvery is how many ingested packets pass between SLO samples on
// the receiver loop.
const sloFeedEvery = 64

// feedSLO folds each live stream's receiver totals accrued since the
// last call into the SLO tracker as a delta sample. Attempts are
// distinct packets (duplicates excluded); every attempted packet not yet
// authenticated counts as failed — starvation under loss burns budget,
// exactly the paper's non-authenticable fraction. Must be called from
// the ingest goroutine (receiver totals are not locked).
func (t *Telemetry) feedSLO(dmx *stream.Demux) {
	if t == nil || t.slo == nil || dmx == nil {
		return
	}
	for _, id := range dmx.StreamIDs() {
		r := dmx.Receiver(id)
		if r == nil {
			continue
		}
		cur := r.Totals()
		prev := t.prev[id]
		attempts := int64((cur.Packets - cur.Duplicates) - (prev.Packets - prev.Duplicates))
		if attempts <= 0 {
			continue
		}
		authed := int64(cur.Authenticated - prev.Authenticated)
		failed := attempts - authed
		if failed < 0 {
			failed = 0
		}
		t.slo.Observe(id, obs.SLOSample{
			Authenticated: authed,
			Failed:        failed,
			TimeToAuth:    cur.TimeToAuth.DeltaFrom(prev.TimeToAuth),
		})
		t.prev[id] = cur
	}
	t.slo.Export(t.reg)
	t.flight.NoteSnapshot()
	if t.slo.Red() {
		t.sloRedOnce.Do(func() {
			t.NoteFault("slo_red", "error budget exhausted")
			t.Dump("slo_budget_exhausted")
		})
	}
}
