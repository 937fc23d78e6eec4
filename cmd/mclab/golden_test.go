package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

const goldenStamp = "20260101T000000Z"

// runSweep executes the bundled example sweep into outDir with the given
// worker count and a fixed stamp, so directory names (and therefore the
// rendered dashboard) are reproducible.
func runSweep(t *testing.T, outDir string, workers int) {
	t.Helper()
	err := cmdRun([]string{
		filepath.Join("..", "..", "examples", "lab", "basic.json"),
		"-out", outDir, "-workers", fmt.Sprint(workers), "-stamp", goldenStamp,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func renderSweep(t *testing.T, outDir string) []byte {
	t.Helper()
	mdPath := filepath.Join(outDir, "dashboard.md")
	err := cmdRender([]string{
		"-out", outDir, "-md", mdPath, "-html", filepath.Join(outDir, "dashboard.html"),
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	md, err := os.ReadFile(mdPath)
	if err != nil {
		t.Fatal(err)
	}
	return md
}

// TestGoldenDashboard pins the rendered markdown dashboard byte-for-byte:
// the bundled example sweep (fixed seed and stamp). Every layer under it —
// cell execution, artifact layout, rendering — is deterministic, so the
// bytes are identical on every machine and at every -workers setting (the
// workers 1 vs 4 comparison is part of the test).
// Regenerate with: go test ./cmd/mclab -run TestGoldenDashboard -update
func TestGoldenDashboard(t *testing.T) {
	base := t.TempDir()
	w1, w4 := filepath.Join(base, "w1"), filepath.Join(base, "w4")
	runSweep(t, w1, 1)
	runSweep(t, w4, 4)
	md1 := renderSweep(t, w1)
	md4 := renderSweep(t, w4)
	if !bytes.Equal(md1, md4) {
		t.Fatalf("dashboard differs between -workers 1 and 4:\n--- w1 ---\n%s\n--- w4 ---\n%s", md1, md4)
	}

	golden := filepath.Join("testdata", "dashboard.golden.md")
	if *update {
		if err := os.WriteFile(golden, md1, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(md1, want) {
		t.Errorf("dashboard drifted from %s;\nrerun with -update if the change is intended.\n--- got ---\n%s\n--- want ---\n%s",
			golden, md1, want)
	}

	// The HTML wrapper carries the same rows.
	html, err := os.ReadFile(filepath.Join(w1, "dashboard.html"))
	if err != nil {
		t.Fatal(err)
	}
	for _, wantFrag := range []string{"<h1>mcauth lab dashboard</h1>", "<td>rohatgi/bernoulli(p=0.2)/n=16/r=120</td>"} {
		if !strings.Contains(string(html), wantFrag) {
			t.Errorf("HTML dashboard missing %q", wantFrag)
		}
	}
}

// TestCheckGates drives `mclab check` both ways: the committed
// lab/baselines.json passes against the example sweep, and an injected
// q_min floor violation fails (the path main() turns into a non-zero
// exit).
func TestCheckGates(t *testing.T) {
	outDir := t.TempDir()
	runSweep(t, outDir, 2)

	var out, errOut strings.Builder
	err := cmdCheck([]string{
		"-out", outDir,
		"-baselines", filepath.Join("..", "..", "lab", "baselines.json"),
	}, &out, &errOut)
	if err != nil {
		t.Fatalf("committed baselines fail the example sweep: %v\n%s", err, errOut.String())
	}
	if !strings.Contains(out.String(), "all gates pass") {
		t.Errorf("missing pass summary: %s", out.String())
	}

	// Inject an impossible floor: rohatgi at 20% loss cannot authenticate
	// 99.9% of packets.
	badPath := filepath.Join(t.TempDir(), "bad.json")
	bad := `{"bounds":[{"case":"rohatgi","p":0.2,"min_qmin":0.999}]}`
	if err := os.WriteFile(badPath, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	err = cmdCheck([]string{"-out", outDir, "-baselines", badPath}, &out, &errOut)
	if err == nil {
		t.Fatal("injected q_min floor violation not detected")
	}
	if !strings.Contains(err.Error(), "violation") || !strings.Contains(errOut.String(), "baseline floor") {
		t.Errorf("violation not reported: err=%v, stderr=%s", err, errOut.String())
	}
}

// TestRunRejectsBadInvocations pins CLI error handling.
func TestRunRejectsBadInvocations(t *testing.T) {
	if err := cmdRun(nil, io.Discard); err == nil {
		t.Error("run without a config accepted")
	}
	if err := cmdRun([]string{"a.json", "b.json"}, io.Discard); err == nil {
		t.Error("run with two configs accepted")
	}
	if err := cmdRun([]string{"missing.yaml"}, io.Discard); err == nil || !strings.Contains(err.Error(), "YAML") {
		t.Errorf("YAML config must get a targeted error, got %v", err)
	}
	if err := cmdRender([]string{"stray"}, io.Discard); err == nil {
		t.Error("render with positional args accepted")
	}
	if err := cmdCheck([]string{"-baselines", "does-not-exist.json"}, io.Discard, io.Discard); err == nil {
		t.Error("check with missing baselines accepted")
	}
	if err := cmdRender([]string{"-bench", "."}, io.Discard); err == nil {
		t.Error("render accepted the retired -bench flag")
	}
	if err := cmdCheck([]string{"-bench", "."}, io.Discard, io.Discard); err == nil {
		t.Error("check accepted the retired -bench flag")
	}
}
