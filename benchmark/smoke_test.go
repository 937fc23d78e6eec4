package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// repoFiles lists every file under the repository root with its size and
// modification time, outside .git.
func repoFiles(t *testing.T) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.Walk("..", func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			if info.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		files[path] = info.ModTime().String() + " " + info.Mode().String()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestSmoke runs every workload, untraced and traced, at a tiny scale and
// holds what they emit against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(sp.Workloads), len(workloads))
	}
	for _, list := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
		for _, ms := range list {
			if !nameRE.MatchString(ms.Name) {
				t.Errorf("metric name %q is not made of letters, digits, _ . -", ms.Name)
			}
		}
	}
	before := repoFiles(t)
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	for i, wl := range sp.Workloads {
		if !nameRE.MatchString(wl.Name) {
			t.Errorf("workload name %q is not made of letters, digits, _ . -", wl.Name)
		}
		w, ok := findWorkload(wl.Name)
		if !ok || w.name != workloads[i].name {
			t.Fatalf("BENCHMARK.json workload %d is %q, the harness has %q", i, wl.Name, workloads[i].name)
		}
		for _, traced := range []bool{false, true} {
			r := &runner{w: w, p: params{seed: 7, tiny: true}, sp: sp}
			want := sp.EndToEnd
			if traced {
				r.spans = spans
				want = sp.PerLayer
			}
			res, err := r.run(0.4, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, ms := range want {
				if got, ok := res.Metrics[ms.Name]; !ok || got.Unit != ms.Unit {
					t.Errorf("%s traced=%v: metric %s: got %+v, want unit %q", w.name, traced, ms.Name, got, ms.Unit)
				}
			}
			if !traced {
				for name, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.name, name, v.Value)
					}
				}
			}
			var line bytes.Buffer
			if err := json.NewEncoder(&line).Encode(res); err != nil {
				t.Fatal(err)
			}
			if strings.Count(line.String(), "\n") != 1 {
				t.Errorf("%s: the result is not one line", w.name)
			}
		}
		if raw, err := os.ReadFile(spans); err != nil || len(raw) == 0 {
			t.Errorf("%s: no spans written: %v", w.name, err)
		}
	}
	after := repoFiles(t)
	for path, stamp := range after {
		if before[path] != stamp {
			t.Errorf("the benchmark wrote %s inside the repository", path)
		}
	}
}

// TestCompare holds -compare to its three verdicts.
func TestCompare(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, latencies ...float64) string {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for i, ms := range latencies {
			rec := record{Workload: "serve_paced", Seed: uint64(i), result: result{
				Correct: true, Attempted: 1,
				Metrics: map[string]metricVal{"latency_p50_ms": {Value: ms, Unit: "ms"}},
			}}
			if err := enc.Encode(rec); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a", 40, 40.2, 40.4, 40.6)
	for _, tc := range []struct {
		name    string
		other   string
		verdict string
		fails   bool
	}{
		{"same", write("b", 40.1, 40.3, 40.5, 40.7), "same", false},
		{"worse", write("b", 80, 80.2, 80.4, 80.6), "WORSE", true},
		{"better", write("b", 20, 20.2, 20.4, 20.6), "better", false},
		{"unresolved", write("b", 20, 40, 60, 80), "unresolved", false},
	} {
		var out bytes.Buffer
		err := runCompare(sp, base, tc.other, &out)
		if (err != nil) != tc.fails {
			t.Errorf("%s: err = %v, want failure %v", tc.name, err, tc.fails)
		}
		if !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: no %q verdict in:\n%s", tc.name, tc.verdict, out.String())
		}
	}
}

func TestSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := spread(xs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
