package diagnose

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/delay"
	"mcauth/internal/depgraph"
	"mcauth/internal/fault"
	"mcauth/internal/loss"
	"mcauth/internal/netsim"
	"mcauth/internal/obs"
	"mcauth/internal/scheme"
	"mcauth/internal/scheme/emss"
)

// chainGraph builds 1 -> 2 -> ... -> n rooted at 1.
func chainGraph(t *testing.T, n int) *depgraph.Graph {
	t.Helper()
	g, err := depgraph.New(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		g.MustAddEdge(i, i+1)
	}
	return g
}

func identity(index uint32) (int, bool) { return int(index), true }

// TestClassificationSynthetic drives each cause through a hand-built
// event stream: one receiver, a 5-packet chain rooted at packet 1.
func TestClassificationSynthetic(t *testing.T) {
	sent := func(idx uint32) obs.Span {
		return obs.Span{Kind: obs.SpanSent, Wire: int(idx), Index: idx}
	}
	ev := func(typ obs.SpanKind, idx uint32, reason string) obs.Span {
		return obs.Span{Kind: typ, Index: idx, Reason: reason}
	}
	events := []obs.Span{
		{Kind: obs.SpanRunMeta, Scheme: "test", Wire: 6, Root: 1},
		sent(1), sent(2), sent(3), sent(4), sent(5), sent(6),
		// 1 (root): delivered + authenticated.
		ev(obs.SpanDelivered, 1, ""), ev(obs.SpanAuthenticate, 1, ""),
		// 2: lost on the channel.
		ev(obs.SpanDropped, 2, "loss"),
		// 3: delivered but rejected (tampered).
		ev(obs.SpanDelivered, 3, ""), ev(obs.SpanReject, 3, "digest_mismatch"),
		// 4: delivered but dropped by the bounded buffer.
		ev(obs.SpanDelivered, 4, ""), ev(obs.SpanOverflowDropped, 4, ""),
		// 5: delivered, path cut by the loss of 2.
		ev(obs.SpanDelivered, 5, ""),
		// 6: delivered past its TESLA deadline.
		ev(obs.SpanDelivered, 6, ""), ev(obs.SpanUnsafe, 6, "deadline"),
	}
	g := chainGraph(t, 6)
	diags, err := diagnoseSpans(events, Options{Graph: g, VertexOf: identity})
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint32]Cause{
		2: causePacketLost,
		3: causeRejected,
		4: causeBufferDrop,
		5: causeHashPathCut,
		6: causeDeadline,
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnoses, want %d: %+v", len(diags), len(want), diags)
	}
	for _, d := range diags {
		if want[d.Index] != d.Cause {
			t.Errorf("index %d: cause %s, want %s", d.Index, d.Cause, want[d.Index])
		}
		if d.Index == 5 && !slices.Equal(d.Culprits, []uint32{2}) {
			t.Errorf("index 5 culprits = %v, want [2]", d.Culprits)
		}
	}
}

// TestSignatureLost: nothing at the receiver can authenticate because the
// root itself never did.
func TestSignatureLost(t *testing.T) {
	events := []obs.Span{
		{Kind: obs.SpanRunMeta, Scheme: "test", Wire: 3, Root: 1},
		{Kind: obs.SpanSent, Wire: 1, Index: 1},
		{Kind: obs.SpanSent, Wire: 2, Index: 2},
		{Kind: obs.SpanSent, Wire: 3, Index: 3},
		{Kind: obs.SpanDropped, Index: 1, Reason: "loss"},
		{Kind: obs.SpanDelivered, Index: 2},
		{Kind: obs.SpanDelivered, Index: 3},
	}
	diags, err := diagnoseSpans(events, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantCauses := map[uint32]Cause{
		1: causePacketLost,
		2: causeSignatureLost,
		3: causeSignatureLost,
	}
	for _, d := range diags {
		if wantCauses[d.Index] != d.Cause {
			t.Errorf("index %d: cause %s, want %s", d.Index, d.Cause, wantCauses[d.Index])
		}
	}
	if len(diags) != 3 {
		t.Fatalf("got %d diagnoses, want 3", len(diags))
	}
}

func emssScheme(t *testing.T, n int) *scheme.Chained {
	t.Helper()
	s, err := emss.New(emss.Config{N: n, M: 2, D: 1}, crypto.NewSignerFromString("diag"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runTraced(t *testing.T, s scheme.Scheme, cfg netsim.Config, n int) (*netsim.Result, []obs.Span) {
	t.Helper()
	mem := obs.NewSpanSink(obs.KeepAll, nil)
	cfg.Tracer = mem
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = []byte{byte(i)}
	}
	res, err := netsim.Run(s, cfg, 1, payloads)
	if err != nil {
		t.Fatal(err)
	}
	return res, mem.Snapshot()
}

func lossyConfig(t *testing.T, p float64, receivers int, seed uint64, root uint32) netsim.Config {
	t.Helper()
	m, err := loss.NewBernoulli(p)
	if err != nil {
		t.Fatal(err)
	}
	return netsim.Config{
		Receivers:       receivers,
		Loss:            m,
		Delay:           delay.Constant{D: 3 * time.Millisecond},
		SendInterval:    5 * time.Millisecond,
		Start:           time.Unix(9000, 0),
		Seed:            seed,
		ReliableIndices: []uint32{root},
	}
}

func diagnoseOptions(t *testing.T, s *scheme.Chained) Options {
	t.Helper()
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return Options{Graph: g, VertexOf: s.VertexOf}
}

// TestNetsimGroundTruth joins a real lossy run's trace against the graph
// and checks the diagnosis against the simulator's own per-receiver
// outcome: every unauthenticated packet gets exactly one cause, and every
// hash-path-cut culprit set matches an independently computed frontier
// cut over the receiver's true receive pattern.
func TestNetsimGroundTruth(t *testing.T) {
	const n, receivers = 24, 16
	s := emssScheme(t, n)
	res, events := runTraced(t, s, lossyConfig(t, 0.3, receivers, 7, uint32(n)), n)

	opts := diagnoseOptions(t, s)
	diags, err := diagnoseSpans(events, opts)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[[2]int]int)
	for _, d := range diags {
		seen[[2]int{d.Receiver, int(d.Index)}]++
	}
	cut := 0
	for r := range res.PerReceiver {
		rep := &res.PerReceiver[r]
		for idx := uint32(1); idx <= uint32(n); idx++ {
			key := [2]int{r, int(idx)}
			if rep.Verified(idx) {
				if seen[key] != 0 {
					t.Errorf("receiver %d index %d: authenticated but diagnosed", r, idx)
				}
				continue
			}
			if seen[key] != 1 {
				t.Errorf("receiver %d index %d: %d diagnoses, want exactly 1", r, idx, seen[key])
			}
		}
	}
	// Validate culprit sets against the graph directly.
	for _, d := range diags {
		rep := &res.PerReceiver[d.Receiver]
		if d.Cause == causePacketLost && rep.Received(d.Index) {
			t.Errorf("receiver %d index %d: diagnosed lost but simulator says received", d.Receiver, d.Index)
		}
		if d.Cause != causeHashPathCut {
			continue
		}
		cut++
		received := make([]bool, n+1)
		for i := 1; i <= n; i++ {
			received[i] = rep.Received(uint32(i))
		}
		want, err := opts.Graph.FrontierCut(received, int(d.Index))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int, len(d.Culprits))
		for i, c := range d.Culprits {
			got[i] = int(c)
		}
		if !slices.Equal(got, want) {
			t.Errorf("receiver %d index %d: culprits %v, want %v", d.Receiver, d.Index, got, want)
		}
	}
	if cut == 0 {
		t.Error("run produced no hash-path-cut diagnoses; loss rate too low to exercise culprits")
	}
}

// TestFaultPresetRun diagnoses a corruption-preset chaos run: corrupted
// deliveries must surface as rejected-corrupt/forged (or packet-lost when
// the mutation killed the framing), never as hash-path-cut mysteries, and
// the fault counters must reach the report.
func TestFaultPresetRun(t *testing.T) {
	const n, receivers = 16, 8
	s := emssScheme(t, n)
	fc, err := fault.Preset("corruption", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lossyConfig(t, 0.1, receivers, 21, uint32(n))
	cfg.Faults = &fc
	res, events := runTraced(t, s, cfg, n)

	rep, err := BuildReport(events, 0, diagnoseOptions(t, s))
	if err != nil {
		t.Fatal(err)
	}
	totals := res.FaultTotals()
	if rep.Faults.Corrupted != totals.Corrupted || rep.Faults.Truncated != totals.Truncated {
		t.Errorf("report faults %+v, simulator %+v", rep.Faults, totals)
	}
	if totals.Corrupted > 0 && rep.Causes[causeRejected] == 0 {
		t.Error("corruption run produced no rejected-corrupt/forged diagnoses")
	}
	for _, d := range rep.Diagnoses {
		rp := &res.PerReceiver[d.Receiver]
		if rp.Verified(d.Index) {
			t.Errorf("receiver %d index %d: authenticated but diagnosed %s", d.Receiver, d.Index, d.Cause)
		}
	}
	// Every unauthenticated data packet is diagnosed exactly once.
	for r := range res.PerReceiver {
		rp := &res.PerReceiver[r]
		unauthed := 0
		for idx := uint32(1); idx <= uint32(n); idx++ {
			if !rp.Verified(idx) {
				unauthed++
			}
		}
		got := 0
		for _, d := range rep.Diagnoses {
			if d.Receiver == r {
				got++
			}
		}
		if got != unauthed {
			t.Errorf("receiver %d: %d diagnoses, want %d", r, got, unauthed)
		}
	}
}

// TestReportDeterminism runs the same seed twice: the two traces differ in
// event order (parallel receivers) but must produce byte-identical JSON
// reports and an empty diff.
func TestReportDeterminism(t *testing.T) {
	const n, receivers = 20, 12
	s := emssScheme(t, n)
	render := func() (*Report, []byte) {
		_, events := runTraced(t, s, lossyConfig(t, 0.35, receivers, 99, uint32(n)), n)
		rep, err := BuildReport(events, 0, diagnoseOptions(t, s))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return rep, buf.Bytes()
	}
	repA, jsonA := render()
	repB, jsonB := render()
	if diff := Diff(repA, repB); len(diff) != 0 {
		t.Errorf("identical-seed reports differ:\n%v", diff)
	}
	if !bytes.Equal(jsonA, jsonB) {
		t.Error("identical-seed reports render to different JSON")
	}
	// Text and markdown renderings must not error.
	var buf bytes.Buffer
	if err := repA.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := repA.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestDiffReportsChanges flags a doctored report.
func TestDiffReportsChanges(t *testing.T) {
	const n = 12
	s := emssScheme(t, n)
	_, events := runTraced(t, s, lossyConfig(t, 0.3, 6, 5, uint32(n)), n)
	repA, err := BuildReport(events, 0, diagnoseOptions(t, s))
	if err != nil {
		t.Fatal(err)
	}
	repB, err := BuildReport(events, 0, diagnoseOptions(t, s))
	if err != nil {
		t.Fatal(err)
	}
	repB.Authenticated++
	repB.Causes[causePacketLost]++
	if diff := Diff(repA, repB); len(diff) < 2 {
		t.Errorf("doctored report diff too small: %v", diff)
	}
}

// TestDataIndicesScope restricts diagnosis to a subset of indices.
func TestDataIndicesScope(t *testing.T) {
	events := []obs.Span{
		{Kind: obs.SpanSent, Wire: 1, Index: 1},
		{Kind: obs.SpanSent, Wire: 2, Index: 2},
		{Kind: obs.SpanSent, Wire: 3, Index: 3},
		{Kind: obs.SpanDropped, Index: 1, Reason: "loss"},
		{Kind: obs.SpanDropped, Index: 2, Reason: "loss"},
		{Kind: obs.SpanDropped, Index: 3, Reason: "loss"},
	}
	diags, err := diagnoseSpans(events, Options{DataIndices: []uint32{2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Index != 2 || diags[0].Cause != causePacketLost {
		t.Fatalf("scoped diagnosis = %+v, want exactly index 2 packet-lost", diags)
	}
}

// TestOptionsValidation rejects a graph without a vertex mapping.
func TestOptionsValidation(t *testing.T) {
	g := chainGraph(t, 3)
	if _, err := diagnoseSpans(nil, Options{Graph: g}); err == nil {
		t.Error("Graph without VertexOf accepted")
	}
	if _, err := diagnoseSpans(nil, Options{VertexOf: identity}); err == nil {
		t.Error("VertexOf without Graph accepted")
	}
}

// TestRefusesTraceWithoutSource: records with no sent among them — a
// daemon's ring, say — put nothing in scope, and an empty diagnosis would
// read as the all-clear, so the join refuses and says what is missing.
func TestRefusesTraceWithoutSource(t *testing.T) {
	spans := []obs.Span{
		{Kind: obs.SpanDecode, Stream: 3, Block: 17, Index: 4},
		{Kind: obs.SpanReject, Stream: 3, Block: 17, Index: 4, Reason: "digest_mismatch"},
	}
	_, err := BuildReport(spans, 0, Options{})
	if err == nil || !strings.Contains(err.Error(), "no sent records among 2") {
		t.Fatalf("BuildReport = %v, want a refusal naming the missing sent records", err)
	}
}
