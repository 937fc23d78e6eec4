package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenFigures are the figures pinned byte-for-byte: fast to regenerate,
// fully deterministic, and together covering the TESLA evaluator (fig3),
// every recurrence series (fig5-9, tradeoff), the Equation (1) bracket
// around the exact q_i (bounds), the wire-format overhead measurement
// (fig10), the recurrence-vs-exact gap study (markovgap), the two that
// are functions of the random stream: Monte-Carlo under bursty loss (burst)
// and the randomised graph constructors (construct), and the two that run
// real verifiers over netsim: signature-packet loss (sigloss) and mid-block
// joiners (latejoin). A change to the generator, a sampler, the trial loop
// or the simulated network that moves a drawn bit or a verdict moves these.
var goldenFigures = []string{
	"fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"tradeoff", "bounds", "markovgap", "burst", "construct",
	"sigloss", "latejoin",
}

// figOutput regenerates one figure with the given worker-pool size.
func figOutput(t *testing.T, fig string, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := run([]string{"-fig", fig, "-workers", strconv.Itoa(workers)}, &buf); err != nil {
		t.Fatalf("%s: %v", fig, err)
	}
	return buf.Bytes()
}

// TestGoldenFigures pins figure output against testdata/ golden files.
// Regenerate with: go test ./cmd/mcfig -run TestGoldenFigures -update
func TestGoldenFigures(t *testing.T) {
	for _, fig := range goldenFigures {
		fig := fig
		t.Run(fig, func(t *testing.T) {
			got := figOutput(t, fig, 1)
			golden := filepath.Join("testdata", fig+".golden")
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
				t.Errorf("%s output drifted from %s;\nrerun with -update if the change is intended.\n--- got ---\n%s\n--- want ---\n%s",
					fig, golden, got, want)
			}
		})
	}
}

// TestGoldenFiguresWorkerInvariant is the determinism guarantee behind
// the golden files: the sweep output must be byte-identical for any
// worker-pool size.
func TestGoldenFiguresWorkerInvariant(t *testing.T) {
	for _, fig := range goldenFigures {
		one := figOutput(t, fig, 1)
		four := figOutput(t, fig, 4)
		if !bytes.Equal(one, four) {
			t.Errorf("%s: output differs between -workers 1 and -workers 4", fig)
		}
	}
}
