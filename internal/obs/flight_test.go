package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestFlightRecorderRoundTrip(t *testing.T) {
	clk := newSLOClock()
	reg := NewRegistry()
	reg.Counter("verify.deferred_enqueued").Add(42)
	ring := NewSpanSink(16, nil)
	for _, s := range lifecycleSpans() {
		ring.Record(s)
	}
	slo := newTestTracker(clk)
	slo.Observe(3, SLOSample{Authenticated: 10, Failed: 90, TimeToAuth: ttaSample(1000)})

	fr := NewFlightRecorder(FlightConfig{
		Spans:    ring,
		Registry: reg,
		SLO:      slo,
		Clock:    clk.Now,
	})
	fr.NoteSnapshot()
	clk.Advance(time.Second)
	fr.NoteFault("kill", "cycle 1")
	fr.NoteFault("restart", "cycle 1")
	if fr.faultCount() != 2 {
		t.Fatalf("Faults = %d, want 2", fr.faultCount())
	}

	var buf bytes.Buffer
	if err := fr.Dump(&buf, "chaos_kill"); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	d, skipped, err := ReadFlightDump(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("skipped = %d, want 0", skipped)
	}
	if d.Meta.Reason != "chaos_kill" {
		t.Fatalf("reason = %q", d.Meta.Reason)
	}
	if d.Meta.Spans != len(lifecycleSpans()) || len(d.Spans) != d.Meta.Spans {
		t.Fatalf("spans: meta %d, parsed %d, want %d", d.Meta.Spans, len(d.Spans), len(lifecycleSpans()))
	}
	// One explicit NoteSnapshot plus the terminal snapshot Dump takes.
	if len(d.Snapshots) != 2 {
		t.Fatalf("snapshots = %d, want 2", len(d.Snapshots))
	}
	if got := d.Snapshots[1].Metrics.Counters["verify.deferred_enqueued"]; got != 42 {
		t.Fatalf("terminal snapshot deferred_enqueued = %d, want 42", got)
	}
	if len(d.Faults) != 2 || d.Faults[0].Kind != "kill" || d.Faults[1].Kind != "restart" {
		t.Fatalf("faults = %+v", d.Faults)
	}
	if d.SLO == nil || d.SLO.State != sloRed {
		t.Fatalf("slo section = %+v, want red", d.SLO)
	}

	// The same dump is also a readable span stream for generic tooling.
	spans, _, err := ReadSpans(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != len(lifecycleSpans()) {
		t.Fatalf("ReadSpans over dump = %d spans, want %d", len(spans), len(lifecycleSpans()))
	}
}

func TestFlightRecorderFaultRingBounded(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{MaxFaults: 3, Clock: newSLOClock().Now})
	for i := 0; i < 10; i++ {
		fr.NoteFault("kill", strings.Repeat("x", i))
	}
	if fr.faultCount() != 3 {
		t.Fatalf("Faults = %d, want bounded at 3", fr.faultCount())
	}
	faults := fr.faults.snapshot()
	if faults[0].Detail != strings.Repeat("x", 7) {
		t.Fatalf("oldest kept fault = %+v, want the 8th", faults[0])
	}
}

func TestReadFlightDumpToleratesDamage(t *testing.T) {
	fr := NewFlightRecorder(FlightConfig{Clock: newSLOClock().Now})
	fr.NoteFault("panic", "boom")
	var buf bytes.Buffer
	if err := fr.Dump(&buf, "panic"); err != nil {
		t.Fatal(err)
	}
	damaged := "garbage line\n" + buf.String() + `{"type":"fault","t_ns":` // torn tail
	d, skipped, err := ReadFlightDump(strings.NewReader(damaged))
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 2 {
		t.Fatalf("skipped = %d, want 2", skipped)
	}
	if len(d.Faults) != 1 || d.Faults[0].Kind != "panic" {
		t.Fatalf("faults = %+v", d.Faults)
	}
}

func TestReadFlightDumpRejectsNonDump(t *testing.T) {
	if _, _, err := ReadFlightDump(strings.NewReader(`{"type":"span","kind":"push"}`)); err == nil {
		t.Fatal("want error for a stream with no flight_meta")
	}
}

func TestFlightRecorderNilInert(t *testing.T) {
	var fr *FlightRecorder
	fr.NoteFault("kill", "")
	fr.NoteSnapshot()
	if fr.faultCount() != 0 {
		t.Fatal("nil recorder holds faults")
	}
	if err := fr.Dump(&bytes.Buffer{}, "x"); err != nil {
		t.Fatal(err)
	}
	if err := fr.DumpFile("", "x"); err != nil {
		t.Fatal(err)
	}
}
