package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mcauth/internal/catalog"
	"mcauth/internal/crypto"
	"mcauth/internal/delay"
	"mcauth/internal/diagnose"
	"mcauth/internal/loss"
	"mcauth/internal/netsim"
	"mcauth/internal/obs"
	"mcauth/internal/scenario"
	"mcauth/internal/scheme/emss"
	"mcauth/internal/schemetest"
)

// writeTrace simulates one lossy EMSS block and saves its JSONL trace,
// exactly as `mcsim -trace` would.
func writeTrace(t *testing.T, path string, seed uint64) {
	t.Helper()
	const n = 20
	signer := crypto.NewSignerFromString("mcreport-test")
	s, err := emss.New(emss.Config{N: n, M: 2, D: 1}, signer)
	if err != nil {
		t.Fatal(err)
	}
	model, err := loss.NewBernoulli(0.25)
	if err != nil {
		t.Fatal(err)
	}
	tracer, err := obs.OpenTrace(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = []byte("payload")
	}
	cfg := netsim.Config{
		Receivers:       10,
		Loss:            model,
		Delay:           delay.Constant{D: time.Millisecond},
		SendInterval:    5 * time.Millisecond,
		Start:           time.Unix(0, 0),
		Seed:            seed,
		ReliableIndices: []uint32{n},
		Tracer:          tracer,
	}
	if _, err := netsim.Run(s, cfg, 1, payloads); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
}

// capture runs f with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := f()
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), ferr
}

// TestDiffIdenticalSeeds is the determinism acceptance check: two traces of
// the same seed diagnose to byte-identical reports, so -diff prints nothing
// and succeeds.
func TestDiffIdenticalSeeds(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	writeTrace(t, a, 7)
	writeTrace(t, b, 7)
	out, err := capture(t, func() error {
		return run([]string{"-diff", a, b})
	})
	if err != nil {
		t.Fatal(err)
	}
	if out != "" {
		t.Errorf("diff of identical-seed runs not empty:\n%s", out)
	}
}

// TestDiffDetectsChange: different seeds change receive patterns, so the
// diff is non-empty and the command fails like diff(1) does.
func TestDiffDetectsChange(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	writeTrace(t, a, 7)
	writeTrace(t, b, 8)
	out, err := capture(t, func() error {
		return run([]string{"-diff", a, b})
	})
	if err == nil {
		t.Error("diff of different seeds should fail")
	}
	if out == "" {
		t.Error("diff of different seeds printed nothing")
	}
}

// TestReportOutputs renders one trace in all three formats and checks the
// JSON half against the diagnose invariants.
func TestReportOutputs(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.jsonl")
	writeTrace(t, trace, 3)
	jsonPath := filepath.Join(dir, "rep.json")
	mdPath := filepath.Join(dir, "rep.md")
	out, err := capture(t, func() error {
		return run([]string{"-json", jsonPath, "-md", mdPath, trace})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "root causes") {
		t.Errorf("text report missing cause section:\n%s", out)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep diagnose.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report JSON: %v", err)
	}
	if rep.Scheme == "" || rep.WireCount != 20 || rep.Receivers != 10 {
		t.Errorf("run_meta not joined in: scheme=%q wire=%d receivers=%d",
			rep.Scheme, rep.WireCount, rep.Receivers)
	}
	var causeTotal int
	for _, c := range rep.Causes {
		causeTotal += c
	}
	if causeTotal != rep.Unauthenticated {
		t.Errorf("causes sum to %d, want unauthenticated = %d", causeTotal, rep.Unauthenticated)
	}
	md, err := os.ReadFile(mdPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "| Cause | Count |") {
		t.Error("markdown report missing cause table")
	}
}

// renameScheme rewrites the scheme name on a trace's run_meta record.
func renameScheme(t *testing.T, path, name string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const from = `"scheme":"emss(E_{2,1}, n=20)"`
	if !bytes.Contains(raw, []byte(from)) {
		t.Fatalf("trace has no %s", from)
	}
	raw = bytes.Replace(raw, []byte(from), []byte(`"scheme":"`+name+`"`), 1)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGraphlessReportStillClassifies: a run_meta scheme name that names no
// catalogue scheme rebuilds no graph, so there is no culprit attribution,
// but every failure still gets exactly one cause.
func TestGraphlessReportStillClassifies(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.jsonl")
	writeTrace(t, trace, 4)
	renameScheme(t, trace, "custom(n=20)")
	jsonPath := filepath.Join(dir, "rep.json")
	if _, err := capture(t, func() error {
		return run([]string{"-json", jsonPath, trace})
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep diagnose.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Diagnoses) != rep.Unauthenticated {
		t.Errorf("%d diagnoses, want %d", len(rep.Diagnoses), rep.Unauthenticated)
	}
	for _, d := range rep.Diagnoses {
		if len(d.Culprits) != 0 {
			t.Errorf("culprits named without a graph: %+v", d)
		}
	}
}

// TestReportRebuildsSchemeFromTrace: for every catalogue scheme, the report
// of a trace equals the one built against the entry that produced it —
// the join the scheme flags used to rebuild by hand.
func TestReportRebuildsSchemeFromTrace(t *testing.T) {
	signer := crypto.NewSignerFromString("mcreport-test")
	for _, id := range catalog.IDs() {
		t.Run(id, func(t *testing.T) {
			spec := catalog.Spec{ID: id, N: 16, M: 2, D: 1, A: 3, B: 3, Lag: 4,
				Interval: 10 * time.Millisecond, Seed: []byte("mcreport-test")}
			entry, err := catalog.Build(spec, signer)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "run.jsonl")
			tracer, err := obs.OpenTrace(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := scenario.Config(entry, 8, loss.Spec{P: 0.3}, delay.Constant{D: time.Millisecond}, 3)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Tracer = tracer
			if _, err := netsim.Run(entry.Scheme, cfg, 1, schemetest.Payloads(spec.N)); err != nil {
				t.Fatal(err)
			}
			if err := tracer.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := loadReport(path)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			spans, skipped, err := obs.ReadSpans(f)
			if err != nil {
				t.Fatal(err)
			}
			opts, err := entry.DiagnoseOptions()
			if err != nil {
				t.Fatal(err)
			}
			want, err := diagnose.BuildReport(spans, skipped, opts)
			if err != nil {
				t.Fatal(err)
			}
			var gotJSON, wantJSON bytes.Buffer
			if err := got.WriteJSON(&gotJSON); err != nil {
				t.Fatal(err)
			}
			if err := want.WriteJSON(&wantJSON); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON.Bytes(), wantJSON.Bytes()) {
				t.Errorf("report differs from the entry's own:\n%s\nwant:\n%s", gotJSON.Bytes(), wantJSON.Bytes())
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.jsonl")
	writeTrace(t, trace, 5)
	if err := run([]string{}); err == nil {
		t.Error("no trace file should fail")
	}
	if err := run([]string{"-diff", trace}); err == nil {
		t.Error("-diff with one file should fail")
	}
	if err := run([]string{"-scheme", "emss", trace}); err == nil {
		t.Error("-scheme is no flag: the trace names its scheme")
	}
	unbuildable := filepath.Join(dir, "unbuildable.jsonl")
	writeTrace(t, unbuildable, 5)
	renameScheme(t, unbuildable, "emss(E_{0,1}, n=20)")
	if err := run([]string{unbuildable}); err == nil {
		t.Error("a run_meta naming an unbuildable scheme should fail")
	}
	if err := run([]string{filepath.Join(dir, "missing.jsonl")}); err == nil {
		t.Error("missing trace should fail")
	}
}

// TestSpanFixtureIsNotAnAllClear is the regression for the serving tier's
// span fixture read as a lifecycle trace: it holds a reject and no sent
// record, so the report must refuse, naming what is missing, rather than
// print "every received packet authenticated" over it.
func TestSpanFixtureIsNotAnAllClear(t *testing.T) {
	fixture := filepath.Join("..", "..", "internal", "obs", "testdata", "spans.golden.jsonl")
	out, err := capture(t, func() error { return run([]string{fixture}) })
	if err == nil || !strings.Contains(err.Error(), "no sent records among 9 trace records") {
		t.Errorf("run = %v, want a refusal naming the missing sent records", err)
	}
	if strings.Contains(out, "every received packet authenticated") {
		t.Errorf("all-clear printed over a file holding a reject:\n%s", out)
	}
}

// TestForeignLinesAreSkippedAndCounted: lines of another type sharing the
// file — the pre-span event grammar, a flight-dump header — are not trace
// records, so they reach the report only as skipped_trace_lines.
func TestForeignLinesAreSkippedAndCounted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mixed.jsonl")
	writeTrace(t, path, 3)
	clean, err := loadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"rejected","recv":0,"index":3,"block":1,"reason":"digest_mismatch"}` + "\n" +
		`{"type":"flight_meta","reason":"sigusr1"}` + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mixed, err := loadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if clean.SkippedTraceLines != 0 || mixed.SkippedTraceLines != 2 {
		t.Errorf("skipped_trace_lines = %d clean, %d with two foreign lines; want 0 and 2",
			clean.SkippedTraceLines, mixed.SkippedTraceLines)
	}
	mixed.SkippedTraceLines = 0
	if lines := diagnose.Diff(clean, mixed); len(lines) != 0 {
		t.Errorf("foreign lines changed the diagnosis: %v", lines)
	}
}
