package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"mcauth/internal/obs"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleFigure(t *testing.T) {
	if err := run([]string{"-fig", "fig9"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-fig", "nope"}, io.Discard); err == nil {
		t.Error("unknown figure should fail")
	}
	if err := run(nil, io.Discard); err == nil {
		t.Error("no mode should fail")
	}
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
		t.Error("unknown flag should fail")
	}
}

// TestObservabilityOutputs checks -trace/-metrics parity with mcsim: a
// figure regeneration writes a decodable JSONL trace and a metrics JSON
// that agree on how many packets the sweeps simulated.
func TestObservabilityOutputs(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "fig.jsonl")
	metricsPath := filepath.Join(dir, "fig-metrics.json")
	if err := run([]string{"-fig", "latejoin", "-trace", tracePath, "-metrics", metricsPath}, io.Discard); err != nil {
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
	var sent int64
	for _, e := range events {
		if e.Kind == obs.SpanSent {
			sent++
		}
	}
	if sent == 0 {
		t.Fatal("trace has no sent events")
	}
	raw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if got := snap.Counters["netsim.sent"]; got != sent {
		t.Errorf("netsim.sent = %d, trace has %d sent events", got, sent)
	}
	if snap.Counters["crypto.verify_ops"] <= 0 {
		t.Error("crypto.verify_ops missing from metrics")
	}
}

func TestUnwritableOutputsFail(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "out")
	for _, flagName := range []string{"-trace", "-metrics"} {
		if err := run([]string{"-fig", "latejoin", flagName, bad}, io.Discard); err == nil {
			t.Errorf("%s %s should fail", flagName, bad)
		}
	}
}
