package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mcauth/internal/diagnose"
	"mcauth/internal/obs"
)

func TestRunSchemes(t *testing.T) {
	for _, name := range []string{"rohatgi", "emss", "augchain", "authtree", "signeach", "tesla"} {
		name := name
		t.Run(name, func(t *testing.T) {
			err := run([]string{
				"-scheme", name, "-n", "16", "-p", "0.2",
				"-receivers", "10", "-seed", "3",
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunBurstAndLateJoin(t *testing.T) {
	err := run([]string{
		"-scheme", "augchain", "-n", "17", "-p", "0.1", "-burst", "3",
		"-receivers", "10", "-latejoin", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAnalyticLabelNamesChannel: the analytic q_min is the run's own
// channel's, so under -burst the label names the channel and the root rule
// it was taken under, and an overlay's says it models the last hop alone —
// in the value, once, under the one row name both topologies print.
func TestAnalyticLabelNamesChannel(t *testing.T) {
	for _, c := range []struct {
		overlay     bool
		burst, want string
	}{
		{false, "0", "0.5911 (exact)"},
		{false, "1", "0.5911 (exact)"},
		{false, "5", "0.3614 (exact, forced, gilbert(pi_bad=0.1, burst=5))"},
		{true, "0", "0.5911 (exact, i.i.d. last hop)"},
		{true, "5", "0.3614 (exact, forced, gilbert(pi_bad=0.1, burst=5), last hop)"},
	} {
		args := []string{"-scheme", "emss", "-n", "60", "-m", "2", "-d", "1", "-p", "0.1", "-burst", c.burst}
		if c.overlay {
			args = append(args, "-overlay")
		}
		o, err := parseOptions(args)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := buildEntry(o)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("overlay %v, -burst %s: analytic q_min %q, want %q", c.overlay, c.burst, got, c.want)
		}
	}
	// The overlay table prints the label once, in that row.
	out, err := os.Create(filepath.Join(t.TempDir(), "overlay.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = run([]string{"-overlay", "-scheme", "emss", "-n", "60", "-p", "0.1", "-burst", "5", "-receivers", "20", "-workers", "1"})
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile(`(?m)^analytic q_min +0\.3614 \(exact, forced, gilbert\(pi_bad=0\.1, burst=5\), last hop\)$`)
	if !row.Match(printed) ||
		strings.Count(string(printed), "forced") != 1 {
		t.Errorf("overlay table does not name the root rule once, in its analytic q_min row:\n%s", printed)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-scheme", "nope"}); err == nil {
		t.Error("unknown scheme should fail")
	}
	if err := run([]string{"-badflag"}); err == nil {
		t.Error("unknown flag should fail")
	}
	if err := run([]string{"-scheme", "emss", "-n", "2", "-m", "5"}); err == nil {
		t.Error("invalid EMSS parameters should fail")
	}
	// NaN parses as a float and fails every `p < 0 || p > 1` test.
	if err := run([]string{"-scheme", "authtree", "-n", "16", "-p", "NaN"}); err == nil {
		t.Error("-p NaN should fail, not run as a lossless channel")
	}
	// -edgep loses packets on mid-tree edges, and a depth-1 tree has none.
	if err := run([]string{"-overlay", "-scheme", "emss", "-n", "8", "-receivers", "4", "-depth", "1", "-edgep", "0.5"}); err == nil {
		t.Error("-overlay -depth 1 -edgep 0.5 should fail: there is no mid-tree edge to lose on")
	}
}

// TestFailedRunsFinishOutputs: a run that fails still closes what it
// opened. A failed profiled run must not leave the CPU profile running
// for the next run in the process, and a run that fails after the
// simulation must still flush its whole trace.
func TestFailedRunsFinishOutputs(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-scheme", "nope", "-cpuprofile", filepath.Join(dir, "a.pprof")}); err == nil {
		t.Fatal("unknown scheme should fail")
	}
	if err := run([]string{"-scheme", "rohatgi", "-n", "8", "-receivers", "2", "-cpuprofile", filepath.Join(dir, "b.pprof")}); err != nil {
		t.Fatalf("profiled run after a failed one: %v", err)
	}

	overlay := func(trace, summary string) error {
		return run([]string{
			"-overlay", "-scheme", "emss", "-n", "8", "-receivers", "10", "-workers", "1",
			"-trace", trace, "-summary", summary,
		})
	}
	okTrace, lateTrace := filepath.Join(dir, "ok.jsonl"), filepath.Join(dir, "late.jsonl")
	if err := overlay(okTrace, filepath.Join(dir, "sum.json")); err != nil {
		t.Fatal(err)
	}
	if err := overlay(lateTrace, filepath.Join(dir, "no-such-dir", "sum.json")); err == nil {
		t.Fatal("unwritable -summary should fail")
	}
	want, err := os.ReadFile(okTrace)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(lateTrace)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Errorf("trace of the failed run has %d bytes, the same run's trace without the failure %d", len(got), len(want))
	}
}

// TestObservabilityOutputs drives a full run with -trace and -metrics and
// cross-checks the emitted artifacts against each other: per-receiver
// authenticated event counts in the trace must equal the verifier counter
// in the metrics JSON, and the metrics must carry the crypto op counts,
// buffer high-water histograms, and time-to-auth histogram the issue
// promises.
func TestObservabilityOutputs(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.jsonl")
	metricsPath := filepath.Join(dir, "metrics.json")
	err := run([]string{
		"-scheme", "emss", "-n", "24", "-p", "0.2",
		"-receivers", "8", "-seed", "11",
		"-trace", tracePath, "-metrics", metricsPath,
	})
	if err != nil {
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
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
	authedByRecv := make(map[int]int64)
	var totalAuthed int64
	for _, e := range events {
		if e.Kind == obs.SpanAuthenticate {
			authedByRecv[e.Receiver]++
			totalAuthed++
		}
	}
	if len(authedByRecv) != 8 {
		t.Errorf("authenticated events span %d receivers, want 8", len(authedByRecv))
	}

	raw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if got := snap.Counters["verifier.authenticated"]; got != totalAuthed {
		t.Errorf("verifier.authenticated = %d, trace has %d authenticated events", got, totalAuthed)
	}
	if snap.Counters["crypto.hash_ops"] <= 0 {
		t.Error("crypto.hash_ops missing from metrics")
	}
	if snap.Counters["crypto.verify_ops"] <= 0 {
		t.Error("crypto.verify_ops missing from metrics")
	}
	h, ok := snap.Histograms["verifier.msg_buffer_high_water"]
	if !ok || h.Count == 0 {
		t.Error("verifier.msg_buffer_high_water histogram missing or empty")
	}
	tta, ok := snap.Histograms["verifier.time_to_auth_ns"]
	if !ok {
		t.Fatal("verifier.time_to_auth_ns histogram missing")
	}
	if tta.Count != totalAuthed {
		t.Errorf("time_to_auth count = %d, want %d", tta.Count, totalAuthed)
	}
	if tta.P99 < tta.P50 {
		t.Errorf("p99 %v < p50 %v", tta.P99, tta.P50)
	}
}

// TestProfilesWritten exercises -cpuprofile and -memprofile.
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	err := run([]string{
		"-scheme", "rohatgi", "-n", "8", "-receivers", "2",
		"-cpuprofile", cpu, "-memprofile", mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

// TestUnwritableOutputsFail verifies the run fails up front, before any
// simulation work, when an observability path cannot be created.
func TestUnwritableOutputsFail(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "out")
	for _, flagName := range []string{"-trace", "-metrics", "-cpuprofile", "-memprofile"} {
		if err := run([]string{"-scheme", "rohatgi", "-n", "4", "-receivers", "1", flagName, bad}); err == nil {
			t.Errorf("%s %s should fail", flagName, bad)
		}
	}
}

// TestReportOutput drives -report end to end: the JSON report must parse,
// account for every unauthenticated packet with exactly one cause, and be
// accompanied by a non-empty markdown rendering.
func TestReportOutput(t *testing.T) {
	dir := t.TempDir()
	repPath := filepath.Join(dir, "rep.json")
	err := run([]string{
		"-scheme", "emss", "-n", "20", "-p", "0.25",
		"-receivers", "12", "-seed", "5", "-report", repPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(repPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep diagnose.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report JSON: %v", err)
	}
	if rep.Receivers != 12 {
		t.Errorf("receivers = %d, want 12", rep.Receivers)
	}
	var causeTotal int
	for _, c := range rep.Causes {
		causeTotal += c
	}
	if causeTotal != rep.Unauthenticated {
		t.Errorf("causes sum to %d, want unauthenticated = %d", causeTotal, rep.Unauthenticated)
	}
	if len(rep.Diagnoses) != rep.Unauthenticated {
		t.Errorf("%d diagnoses, want %d", len(rep.Diagnoses), rep.Unauthenticated)
	}
	if rep.OverheadHashesPerPacket <= 0 {
		t.Error("overhead missing: the EMSS graph should have been joined in")
	}
	md, err := os.ReadFile(repPath + ".md")
	if err != nil {
		t.Fatal(err)
	}
	if len(md) == 0 {
		t.Error("markdown report is empty")
	}

	bad := filepath.Join(dir, "no-such-dir", "rep.json")
	if err := run([]string{"-scheme", "rohatgi", "-n", "4", "-receivers", "1", "-report", bad}); err == nil {
		t.Errorf("-report %s should fail", bad)
	}
}

// TestPprofServesMetrics boots the -pprof listener on an ephemeral port and
// scrapes /metrics and /statusz after the run: the exposer's final snapshot
// keeps serving, and /metrics must look like Prometheus text exposition.
func TestPprofServesMetrics(t *testing.T) {
	oldStderr := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	runErr := run([]string{
		"-scheme", "emss", "-n", "12", "-p", "0.2",
		"-receivers", "4", "-pprof", "127.0.0.1:0",
	})
	w.Close()
	os.Stderr = oldStderr
	captured, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	m := regexp.MustCompile(`http://([^/]+)/debug/pprof/`).FindSubmatch(captured)
	if m == nil {
		t.Fatalf("no pprof address announced in %q", captured)
	}
	addr := string(m[1])

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text exposition", ct)
	}
	if !strings.Contains(string(body), "# TYPE netsim_sent counter") {
		t.Errorf("/metrics missing netsim_sent counter:\n%s", body)
	}
	sample := regexp.MustCompile(`(?m)^netsim_sent ([0-9]+)$`).FindStringSubmatch(string(body))
	if sample == nil {
		t.Fatalf("/metrics has no netsim_sent sample:\n%s", body)
	}
	if sample[1] == "0" {
		t.Error("netsim_sent = 0 after a completed run")
	}

	resp, err = http.Get("http://" + addr + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "mcsim -scheme emss") {
		t.Errorf("/statusz missing the run configuration:\n%s", body)
	}
}

// TestPerPacketSchemesHaveNoReliableWire pins the signature-wire drift fix:
// authtree and signeach have no signature packet, so no wire is exempt
// from loss — at p > 0 some receiver loses wire 1 like any other. And what
// does arrive verifies on its own and is traced as such: the report, which
// is built from the trace, authenticates every delivered packet and blames
// loss alone.
func TestPerPacketSchemesHaveNoReliableWire(t *testing.T) {
	for _, name := range []string{"authtree", "signeach"} {
		repPath := filepath.Join(t.TempDir(), "rep.json")
		err := run([]string{
			"-scheme", name, "-n", "8", "-p", "0.3",
			"-receivers", "40", "-seed", "2", "-report", repPath,
		})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(repPath)
		if err != nil {
			t.Fatal(err)
		}
		var rep diagnose.Report
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatalf("report JSON: %v", err)
		}
		if rep.RootIndex != 0 {
			t.Errorf("%s: report names wire %d as the signature packet; there is none", name, rep.RootIndex)
		}
		if len(rep.ByPosition) == 0 || rep.ByPosition[0].Index != 1 {
			t.Fatalf("%s: report has no row for wire 1: %+v", name, rep.ByPosition)
		}
		if got := rep.ByPosition[0].Received; got >= 40 {
			t.Errorf("%s: wire 1 reached %d of 40 receivers at p=0.3; it is being delivered reliably", name, got)
		}
		if rep.Delivered == 0 || rep.Authenticated != rep.Delivered {
			t.Errorf("%s: report authenticates %d of %d delivered packets", name, rep.Authenticated, rep.Delivered)
		}
		if len(rep.Causes) != 1 || rep.Causes["packet-lost"] != rep.Unauthenticated {
			t.Errorf("%s: root causes %v, want only packet-lost", name, rep.Causes)
		}
		if rep.TimeToAuthNS.Count != int64(rep.Authenticated) {
			t.Errorf("%s: %d time-to-auth observations for %d authenticated", name, rep.TimeToAuthNS.Count, rep.Authenticated)
		}
	}
}

// TestOverlayRepairsOnlySignatureWires: relays NACK-repair and audit the
// signature class. A chained scheme under a lossy tree edge gets repairs;
// a per-packet scheme has no such class, so the same run repairs nothing
// and flags no relay.
func TestOverlayRepairsOnlySignatureWires(t *testing.T) {
	overlay := func(name string) overlaySummary {
		t.Helper()
		sumPath := filepath.Join(t.TempDir(), "sum.json")
		err := run([]string{
			"-overlay", "-scheme", name, "-n", "8", "-p", "0.1", "-receivers", "400",
			"-depth", "2", "-fanout", "4", "-edgep", "0.5", "-relays", "-summary", sumPath,
		})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(sumPath)
		if err != nil {
			t.Fatal(err)
		}
		var sum overlaySummary
		if err := json.Unmarshal(raw, &sum); err != nil {
			t.Fatalf("summary JSON: %v", err)
		}
		return sum
	}
	if sum := overlay("emss"); sum.UpstreamRepaired == 0 {
		t.Error("emss: no upstream repairs; the lossy edge never dropped a signature wire and the scenario proves nothing")
	}
	for _, name := range []string{"authtree", "signeach"} {
		sum := overlay(name)
		if sum.UpstreamRepaired != 0 || sum.ReceiverRepairs != 0 || len(sum.Flagged) != 0 {
			t.Errorf("%s: %d upstream / %d last-hop repairs, flagged %v; a data packet is being treated as P_sign",
				name, sum.UpstreamRepaired, sum.ReceiverRepairs, sum.Flagged)
		}
	}
}

// TestOverlayHonoursObservabilityFlags: -overlay used to return before the
// observability outputs were opened, so these flags were accepted and
// ignored. The metrics, the trace, the report and the summary must now
// describe the same run — and its one signature packet is checked once for
// all 400 receivers.
func TestOverlayHonoursObservabilityFlags(t *testing.T) {
	dir := t.TempDir()
	paths := map[string]string{}
	args := []string{
		"-overlay", "-scheme", "emss", "-n", "8", "-p", "0.1", "-receivers", "400",
		"-depth", "2", "-fanout", "4", "-edgep", "0.5", "-relays",
	}
	for _, name := range []string{"summary", "metrics", "trace", "report", "cpuprofile", "memprofile"} {
		paths[name] = filepath.Join(dir, name)
		args = append(args, "-"+name, paths[name])
	}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	for name, p := range paths {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("-%s wrote nothing in overlay mode (%v)", name, err)
		}
	}
	var sum overlaySummary
	var snap obs.Snapshot
	var rep diagnose.Report
	for name, into := range map[string]any{"summary": &sum, "metrics": &snap, "report": &rep} {
		raw, err := os.ReadFile(paths[name])
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, into); err != nil {
			t.Fatalf("-%s JSON: %v", name, err)
		}
	}
	f, err := os.Open(paths["trace"])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, skipped, err := obs.ReadSpans(f)
	if err != nil || skipped != 0 {
		t.Fatalf("trace: %v, %d lines skipped", err, skipped)
	}
	traced := 0
	for _, s := range spans {
		if s.Kind == obs.SpanAuthenticate {
			traced++
		}
	}
	if got := int(snap.Counters["verifier.authenticated"]); got != sum.Authenticated || traced != got || rep.Authenticated != got {
		t.Errorf("authenticated: summary %d, metrics %d, trace %d, report %d", sum.Authenticated, got, traced, rep.Authenticated)
	}
	if got := snap.Counters["crypto.verify_ops"]; got != 1 {
		t.Errorf("crypto.verify_ops = %d for one signature packet", got)
	}

	bad := filepath.Join(dir, "no-such-dir", "out")
	if err := run([]string{"-overlay", "-scheme", "emss", "-n", "8", "-receivers", "4", "-metrics", bad}); err == nil {
		t.Error("-overlay -metrics to an unwritable path should fail")
	}
	if err := run([]string{"-overlay", "-scheme", "emss", "-n", "8", "-receivers", "4", "-latejoin", "1"}); err == nil {
		t.Error("-overlay -latejoin should fail: the overlay cannot honour it")
	}
}
