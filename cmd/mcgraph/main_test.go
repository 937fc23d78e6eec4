package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mcauth/internal/obs"
)

func TestRunMetricsAllSchemes(t *testing.T) {
	for _, name := range []string{"rohatgi", "emss", "augchain", "authtree", "signeach"} {
		name := name
		t.Run(name, func(t *testing.T) {
			if err := run([]string{"-scheme", name, "-n", "12", "-q"}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunDOT(t *testing.T) {
	if err := run([]string{"-scheme", "emss", "-n", "8", "-dot"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExportImportPrune(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "topo.json")
	// Export to a file by temporarily redirecting stdout.
	old := os.Stdout
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = f
	err = run([]string{"-scheme", "emss", "-n", "20", "-m", "3", "-export"})
	os.Stdout = old
	if closeErr := f.Close(); closeErr != nil {
		t.Fatal(closeErr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-topo", path, "-p", "0.2", "-prune", "0.9"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-scheme", "nope"}); err == nil {
		t.Error("unknown scheme should fail")
	}
	if err := run([]string{"-topo", "/does/not/exist.json"}); err == nil {
		t.Error("missing topology file should fail")
	}
	if err := run([]string{"-scheme", "rohatgi", "-n", "20", "-p", "0.5", "-prune", "0.99"}); err == nil {
		t.Error("unmeetable prune target should fail")
	}
	if err := run([]string{"-badflag"}); err == nil {
		t.Error("unknown flag should fail")
	}
}

// TestReplayObservability checks -trace/-metrics parity with mcsim: the
// lossless replay authenticates the whole block, and the trace it writes is
// a valid lifecycle stream (run_meta first, every packet delivered and
// authenticated).
func TestReplayObservability(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "replay.jsonl")
	metricsPath := filepath.Join(dir, "replay-metrics.json")
	const n = 12
	if err := run([]string{"-scheme", "emss", "-n", "12", "-trace", tracePath, "-metrics", metricsPath}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, skipped, err := obs.ReadSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("trace has %d undecodable lines", skipped)
	}
	if len(events) == 0 || events[0].Kind != obs.SpanRunMeta {
		t.Fatal("trace must start with run_meta")
	}
	var delivered, authed int
	for _, e := range events {
		switch e.Kind {
		case obs.SpanDelivered:
			delivered++
		case obs.SpanAuthenticate:
			authed++
		}
	}
	if delivered != n || authed != n {
		t.Errorf("delivered=%d authenticated=%d, want %d each", delivered, authed, n)
	}
	raw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if got := snap.Counters["verifier.authenticated"]; got != int64(n) {
		t.Errorf("verifier.authenticated = %d, want %d", got, n)
	}

	bad := filepath.Join(dir, "no-such-dir", "out")
	for _, flagName := range []string{"-trace", "-metrics"} {
		if err := run([]string{"-scheme", "emss", "-n", "8", flagName, bad}); err == nil {
			t.Errorf("%s %s should fail", flagName, bad)
		}
	}
}
