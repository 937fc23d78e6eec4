package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// TestGoldenMarkdownReport pins the markdown rendering of a fixed-seed
// trace byte-for-byte. The trace itself is regenerated on every run (it
// is deterministic for a given seed), so the golden file captures only
// the diagnosis and rendering layers — a drift means BuildReport or
// WriteMarkdown changed behavior.
// Regenerate with: go test ./cmd/mcreport -run TestGoldenMarkdownReport -update
func TestGoldenMarkdownReport(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.jsonl")
	writeTrace(t, trace, 7)
	mdPath := filepath.Join(dir, "rep.md")
	if _, err := capture(t, func() error {
		return run([]string{"-md", mdPath, trace})
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(mdPath)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report.golden.md")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("markdown report drifted from %s;\nrerun with -update if the change is intended.\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}

// TestGoldenTextReportStable renders the same trace twice and demands
// byte-identical text output — the property the -diff mode relies on.
func TestGoldenTextReportStable(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.jsonl")
	writeTrace(t, trace, 7)
	var outs [2]string
	for i := range outs {
		out, err := capture(t, func() error {
			return run([]string{trace})
		})
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = out
	}
	if outs[0] != outs[1] {
		t.Error("text report not stable across identical renders")
	}
}
