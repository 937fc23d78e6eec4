package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mcauth/internal/obs"
)

// writeFlightFixture builds a deterministic flight dump: a fixed clock,
// one complete block lifecycle plus one that dies at the mux, a fault
// timeline, and an SLO evaluation fed with a fixed outcome mix.
func writeFlightFixture(t *testing.T, path string) {
	t.Helper()
	base := time.Unix(1_700_000_000, 0)
	now := base
	clock := func() time.Time { return now }

	ring := obs.NewSpanSink(64, nil)
	stamp := func(kind obs.SpanKind, stream, block uint64, index uint32, at time.Duration, dur time.Duration, reason string) {
		ring.Record(obs.Span{
			Kind: kind, Stream: stream, Block: block, Index: index,
			TimeNS: base.Add(at).UnixNano(), DurNS: dur.Nanoseconds(), Reason: reason,
		})
	}
	// Block 9 on stream 2: the full sender->authenticate path.
	stamp(obs.SpanPush, 2, 9, 0, 0, 0, "")
	stamp(obs.SpanEmit, 2, 9, 0, 10*time.Microsecond, 0, "")
	stamp(obs.SpanSignAttach, 2, 9, 0, 900*time.Microsecond, 890*time.Microsecond, "")
	stamp(obs.SpanMuxWrite, 2, 9, 1, time.Millisecond, 0, "")
	stamp(obs.SpanDecode, 2, 9, 1, 2*time.Millisecond, 0, "")
	stamp(obs.SpanDeferredPark, 2, 9, 1, 2100*time.Microsecond, 0, "")
	stamp(obs.SpanSigResolve, 2, 9, 1, 3*time.Millisecond, 0, "")
	stamp(obs.SpanAuthenticate, 2, 9, 1, 3100*time.Microsecond, 1100*time.Microsecond, "")
	// Block 10 on stream 2 dies on the wire: written, never decoded.
	stamp(obs.SpanPush, 2, 10, 0, 4*time.Millisecond, 0, "")
	stamp(obs.SpanEmit, 2, 10, 0, 4010*time.Microsecond, 0, "")
	stamp(obs.SpanMuxWrite, 2, 10, 1, 5*time.Millisecond, 0, "")
	// Block 11 on stream 3 is rejected at the receiver.
	stamp(obs.SpanDecode, 3, 11, 2, 6*time.Millisecond, 0, "")
	stamp(obs.SpanReject, 3, 11, 2, 6100*time.Microsecond, 0, "digest_mismatch")

	slo := obs.NewSLOTracker(obs.SLOConfig{
		Window:          10 * time.Second,
		MinAuthFraction: 0.9,
		MinSample:       10,
		Clock:           clock,
	})
	var h obs.HistogramData
	slo.Observe(2, obs.SLOSample{Authenticated: 40, Failed: 60, TimeToAuth: h})

	fr := obs.NewFlightRecorder(obs.FlightConfig{Spans: ring, SLO: slo, Clock: clock})
	now = base.Add(7 * time.Millisecond)
	fr.NoteFault("kill", "cycle 0: server killed (SIGKILL-equivalent)")
	now = base.Add(8 * time.Millisecond)
	fr.NoteFault("restart", "cycle 1: daemon restarted from checkpoint")
	now = base.Add(9 * time.Millisecond)
	if err := fr.DumpFile(path, "chaos_kill"); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenFlightReport pins the post-mortem rendering of a fixed dump
// byte-for-byte. Regenerate with:
// go test ./cmd/mcreport -run TestGoldenFlightReport -update
func TestGoldenFlightReport(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "flight.jsonl")
	writeFlightFixture(t, dump)
	got, err := capture(t, func() error { return run([]string{"-flight", dump}) })
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "flight_report.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Errorf("flight report drifted from %s;\nrerun with -update if the change is intended.\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}

// TestFlightReportContent spot-checks the post-mortem's load-bearing
// facts without pinning bytes: the trigger, the fault timeline, the red
// SLO, and the complete-lifecycle count.
func TestFlightReportContent(t *testing.T) {
	dump := filepath.Join(t.TempDir(), "flight.jsonl")
	writeFlightFixture(t, dump)
	out, err := capture(t, func() error { return run([]string{"-flight", dump}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"reason    chaos_kill",
		"kill       cycle 0",
		"restart    cycle 1",
		"auth_fraction red",
		"traces: 3 (complete sender->authenticate: 1)",
		"[complete]",
		"reason=digest_mismatch",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("post-mortem missing %q\n--- output ---\n%s", want, out)
		}
	}
}

// TestSeriesSkippedSurfaced checks that -series reports both the parsed
// snapshot count and how many lines ReadSnapshotLines skipped.
func TestSeriesSkippedSurfaced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "series.jsonl")
	reg := obs.NewRegistry()
	reg.Counter("x").Inc()
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		ts := obs.TimedSnapshot{AtUnixNS: int64(1_700_000_000_000_000_000 + i), Metrics: reg.Snapshot()}
		if err := ts.WriteJSONLine(&buf); err != nil {
			t.Fatal(err)
		}
	}
	buf.WriteString("not json at all\n")
	buf.WriteString(`{"type":"span","kind":"push"}` + "\n")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error { return run([]string{"-series", path}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "3 snapshot(s), 2 skipped line(s)") {
		t.Errorf("series summary missing counts:\n%s", out)
	}
	if !strings.Contains(out, "warning: 2 line(s)") {
		t.Errorf("series summary missing skipped warning:\n%s", out)
	}
}

// TestFlightRejectsNonDump checks that pointing -flight at a plain trace
// fails loudly instead of rendering an empty post-mortem.
func TestFlightRejectsNonDump(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-dump.jsonl")
	if err := os.WriteFile(path, []byte(`{"type":"span","kind":"push","stream":1,"block":2}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, func() error { return run([]string{"-flight", path}) }); err == nil {
		t.Fatal("expected an error for a span-only stream with no flight_meta")
	}
}
