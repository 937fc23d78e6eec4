package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
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

// runCapture runs mcgraph with its stdout redirected to a file and returns
// what it printed there.
func runCapture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = f
	runErr := run(args)
	os.Stdout = old
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

func TestRunExportImportPrune(t *testing.T) {
	topo, err := runCapture(t, "-scheme", "emss", "-n", "20", "-m", "3", "-export")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "topo.json")
	if err := os.WriteFile(path, []byte(topo), 0o644); err != nil {
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
	if err := run([]string{"-scheme", "tesla"}); err == nil || !strings.Contains(err.Error(), "slot semantics") {
		t.Errorf("-scheme tesla: %v, want a refusal that says why", err)
	}
	// A bad -p or -trials fails before the metrics table is printed.
	for _, args := range [][]string{
		{"-scheme", "emss", "-n", "12", "-q", "-p", "1.5"},
		{"-scheme", "emss", "-n", "12", "-q", "-p", "NaN"},
		{"-scheme", "emss", "-n", "64", "-m", "6", "-d", "4", "-q", "-trials", "0"},
	} {
		out, err := runCapture(t, args...)
		if err == nil {
			t.Errorf("%v accepted", args)
		}
		if out != "" {
			t.Errorf("%v printed %q before failing", args, out)
		}
	}
}

// TestRunMonteCarloFallback drives -q past the exact evaluator's frontier
// cap, where mcgraph estimates q_i by Monte-Carlo sampling instead.
func TestRunMonteCarloFallback(t *testing.T) {
	out, err := runCapture(t, "-scheme", "emss", "-n", "64", "-m", "6", "-d", "4", "-p", "0.2", "-q", "-trials", "640")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`q_min=([0-9.]+), monte-carlo, 640 trials\)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no Monte-Carlo header in:\n%s", out)
	}
	if q, err := strconv.ParseFloat(m[1], 64); err != nil || q < 0 || q > 1 {
		t.Errorf("q_min %q not in [0, 1]", m[1])
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
	if snap.Counters["crypto.hash_ops"] <= 0 {
		t.Error("crypto.hash_ops missing from metrics")
	}

	bad := filepath.Join(dir, "no-such-dir", "out")
	for _, flagName := range []string{"-trace", "-metrics"} {
		if err := run([]string{"-scheme", "emss", "-n", "8", flagName, bad}); err == nil {
			t.Errorf("%s %s should fail", flagName, bad)
		}
	}
}
