package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/obs"
)

// openProfiled opens a CPU profile and closes it again: it fails while an
// earlier Open left profiling running.
func openProfiled(t *testing.T) {
	t.Helper()
	out, err := Open(Config{CPUProfile: filepath.Join(t.TempDir(), "cpu.pprof")})
	if err != nil {
		t.Fatalf("a profiled Open after a failed one: %v", err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenFailsCleanly: every unwritable output and an unusable -pprof
// address fail Open, and whatever Open had started by then is stopped, so
// the next Open in the process can profile.
func TestOpenFailsCleanly(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "no-such-dir", "out")
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	cpu := filepath.Join(dir, "cpu.pprof")
	for name, cfg := range map[string]Config{
		"trace":      {Trace: bad, CPUProfile: cpu},
		"metrics":    {Metrics: bad, CPUProfile: cpu},
		"cpuprofile": {CPUProfile: bad, Metrics: "-"},
		"memprofile": {MemProfile: bad, CPUProfile: cpu},
		"pprof":      {Pprof: busy.Addr().String(), CPUProfile: cpu, Metrics: "-"},
	} {
		if out, err := Open(cfg); err == nil {
			out.Close()
			t.Errorf("%s: Open succeeded", name)
			continue
		}
		openProfiled(t)
	}
}

// TestCloseWritesMetrics: -metrics - is a table after a blank line, a
// file is one JSON object, and both carry the crypto counters Open
// instrumented.
func TestCloseWritesMetrics(t *testing.T) {
	var table bytes.Buffer
	out, err := Open(Config{Metrics: "-", Stdout: &table})
	if err != nil {
		t.Fatal(err)
	}
	crypto.HashBytes([]byte("x"))
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	if s := table.String(); !strings.HasPrefix(s, "\n") || !strings.Contains(s, "crypto.hash_ops") {
		t.Errorf("table output %q", s)
	}

	path := filepath.Join(t.TempDir(), "m.json")
	out, err = Open(Config{Metrics: path})
	if err != nil {
		t.Fatal(err)
	}
	crypto.HashBytes([]byte("x"))
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if got := snap.Counters["crypto.hash_ops"]; got != 1 {
		t.Errorf("crypto.hash_ops = %d, want 1", got)
	}
	// Close uninstrumented crypto: the run's registry sees no later hash.
	crypto.HashBytes([]byte("x"))
	if got := out.Registry.Counter("crypto.hash_ops").Value(); got != 1 {
		t.Errorf("crypto.hash_ops = %d after Close, want 1", got)
	}
}

// TestCloseEndsIntervalSeries: with MetricsInterval the file is a JSONL
// series whose last line carries the final totals, and a second Close
// changes nothing.
func TestCloseEndsIntervalSeries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.jsonl")
	reg := obs.NewRegistry()
	out, err := Open(Config{Metrics: path, MetricsInterval: time.Millisecond, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if out.Registry != reg {
		t.Fatal("Open replaced the tool's registry")
	}
	reg.Counter("tool.events").Add(3)
	time.Sleep(5 * time.Millisecond)
	reg.Counter("tool.events").Add(4)
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	series, skipped, err := obs.ReadSnapshotLines(f)
	if err != nil || skipped != 0 {
		t.Fatalf("series: %v, %d lines skipped", err, skipped)
	}
	if len(series) == 0 {
		t.Fatal("empty series")
	}
	if got := series[len(series)-1].Metrics.Counters["tool.events"]; got != 7 {
		t.Errorf("final line tool.events = %d, want 7", got)
	}
}

// TestFlags: each tool declares only the output flags it words, and the
// scheme flags declare -lag only where TESLA is offered.
func TestFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var c Config
	c.Flags(fs, Help{Metrics: "write x metrics", Profiles: true})
	for name, want := range map[string]bool{"metrics": true, "cpuprofile": true, "memprofile": true, "trace": false, "pprof": false} {
		if got := fs.Lookup(name) != nil; got != want {
			t.Errorf("-%s declared = %v, want %v", name, got, want)
		}
	}
	if err := fs.Parse([]string{"-metrics", "-", "-memprofile", "m"}); err != nil {
		t.Fatal(err)
	}
	if c.Metrics != "-" || c.MemProfile != "m" {
		t.Errorf("parsed config %+v", c)
	}

	for ids, lag := range map[string]bool{"emss|tesla": true, "emss|authtree": false} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		spec := SchemeFlags(fs, "emss", 20, strings.Split(ids, "|"))
		if got := fs.Lookup("lag") != nil; got != lag {
			t.Errorf("%s: -lag declared = %v, want %v", ids, got, lag)
		}
		if err := fs.Parse([]string{"-n", "9", "-m", "3"}); err != nil {
			t.Fatal(err)
		}
		if spec.ID != "emss" || spec.N != 9 || spec.M != 3 || spec.D != 1 || spec.A != 3 || spec.B != 3 {
			t.Errorf("%s: parsed spec %+v", ids, *spec)
		}
	}
}
