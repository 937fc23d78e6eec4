package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// lifecycleSpans is one full block lifecycle with fixed timestamps, the
// fixture both the golden-schema test and the round-trip test use.
func lifecycleSpans() []Span {
	base := int64(1_700_000_000_000_000_000)
	return []Span{
		{Kind: SpanPush, Stream: 3, Block: 17, TimeNS: base},
		{Kind: SpanEmit, Stream: 3, Block: 17, TimeNS: base + 1_000},
		{Kind: SpanSignAttach, Stream: 3, Block: 17, TimeNS: base + 5_000_000, DurNS: 4_900_000},
		{Kind: SpanMuxWrite, Stream: 3, Block: 17, Index: 1, TimeNS: base + 5_100_000},
		{Kind: SpanDecode, Stream: 3, Block: 17, Index: 1, TimeNS: base + 5_400_000},
		{Kind: SpanDeferredPark, Stream: 3, Block: 17, Index: 9, TimeNS: base + 5_500_000},
		{Kind: SpanSigResolve, Stream: 3, Block: 17, Index: 9, TimeNS: base + 6_000_000},
		{Kind: SpanAuthenticate, Stream: 3, Block: 17, Index: 1, TimeNS: base + 6_100_000, DurNS: 700_000},
		{Kind: SpanReject, Stream: 3, Block: 17, Index: 4, TimeNS: base + 6_200_000, Reason: "digest_mismatch"},
	}
}

// TestSpanGoldenSchema pins the span JSONL encoding byte-for-byte. The
// schema is an interchange format (flight dumps, mcreport, future
// planner), so a drift here must be a deliberate choice, not an accident.
// Regenerate with: go test ./internal/obs -run TestSpanGoldenSchema -update
func TestSpanGoldenSchema(t *testing.T) {
	r := NewSpanSink(16, nil)
	for _, s := range lifecycleSpans() {
		r.Record(s)
	}
	var buf bytes.Buffer
	if err := writeSpansJSONL(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "spans.golden.jsonl"), buf.Bytes())
}

// checkGolden compares got with the golden file, or rewrites it under
// -update.
func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
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
		t.Errorf("span JSONL schema drifted from %s;\nrerun with -update if the change is intended.\n--- got ---\n%s\n--- want ---\n%s",
			golden, got, want)
	}
}

func TestSpanRoundTrip(t *testing.T) {
	in := lifecycleSpans()
	var buf bytes.Buffer
	if err := writeSpansJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, skipped, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("skipped = %d, want 0", skipped)
	}
	if len(got) != len(in) {
		t.Fatalf("got %d spans, want %d", len(got), len(in))
	}
	for i := range got {
		want := in[i]
		want.Type = spanTypeField
		want.Trace = traceID(want.Stream, want.Block)
		if got[i] != want {
			t.Errorf("span %d = %+v, want %+v", i, got[i], want)
		}
		if got[i].Trace != traceID(want.Stream, want.Block) {
			t.Errorf("span %d trace = %d, want TraceID(%d,%d)=%d",
				i, got[i].Trace, want.Stream, want.Block, traceID(want.Stream, want.Block))
		}
	}
}

func TestReadSpansSkipsForeignLines(t *testing.T) {
	mixed := strings.Join([]string{
		`{"type":"flight_meta","reason":"x"}`,
		`{"type":"span","trace":1,"kind":"push","stream":1,"block":2}`,
		`not json at all`,
		`{"type":"authenticated","recv":0}`, // the pre-span event grammar
		`{"type":"span","trace":1,"kind":"decode","stream":1,"block":2,"index":3}`,
		``,
		`{"type":"span"}`, // span without a kind: damaged
	}, "\n")
	spans, skipped, err := ReadSpans(strings.NewReader(mixed))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2: %+v", len(spans), spans)
	}
	if skipped != 4 {
		t.Fatalf("skipped = %d, want 4", skipped)
	}
}

func TestTraceIDDeterministicAndScattering(t *testing.T) {
	if traceID(3, 17) != traceID(3, 17) {
		t.Fatal("TraceID not deterministic")
	}
	seen := make(map[uint64]bool)
	for stream := uint64(0); stream < 8; stream++ {
		for block := uint64(0); block < 64; block++ {
			id := traceID(stream, block)
			if seen[id] {
				t.Fatalf("TraceID collision at stream=%d block=%d", stream, block)
			}
			seen[id] = true
		}
	}
}

func TestSpanRingBoundedEviction(t *testing.T) {
	r := NewSpanSink(4, nil)
	for b := uint64(0); b < 10; b++ {
		r.Record(Span{Kind: SpanPush, Stream: 1, Block: b})
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("kept %d, want 4", len(snap))
	}
	for i, s := range snap {
		if want := uint64(6 + i); s.Block != want {
			t.Errorf("snapshot[%d].Block = %d, want %d (oldest-first, newest kept)", i, s.Block, want)
		}
	}
	all, none := NewSpanSink(KeepAll, nil), NewSpanSink(0, nil)
	for b := uint64(0); b < 10; b++ {
		all.Record(Span{Kind: SpanPush, Block: b})
		none.Record(Span{Kind: SpanPush, Block: b})
	}
	if len(all.Snapshot()) != 10 || len(none.Snapshot()) != 0 || none.Total() != 10 {
		t.Fatalf("KeepAll kept %d of 10, keep 0 kept %d (total %d)", len(all.Snapshot()), len(none.Snapshot()), none.Total())
	}
}

func TestSpanRingDisabledRecordsNothing(t *testing.T) {
	r := NewSpanSink(4, nil)
	r.SetEnabled(false)
	r.ForReceiver(2).Record(Span{Kind: SpanPush, Stream: 1, Block: 1})
	r.Record(Span{Kind: SpanPush, Stream: 1, Block: 1})
	if len(r.Snapshot()) != 0 || r.Total() != 0 {
		t.Fatalf("disabled sink stored spans: len=%d total=%d", len(r.Snapshot()), r.Total())
	}
	var nilSink *SpanSink
	nilSink.Record(Span{Kind: SpanPush})
	nilSink.SetEnabled(true)
	if nilSink.Enabled() || nilSink.ForReceiver(1) != nil || nilSink.Total() != 0 || nilSink.Snapshot() != nil {
		t.Fatal("nil sink must be inert")
	}
	if err := nilSink.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSpanRingConcurrentRecord(t *testing.T) {
	r := NewSpanSink(128, nil)
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			view := r.ForReceiver(w)
			for i := 0; i < per; i++ {
				view.Record(Span{Kind: SpanDecode, Stream: uint64(w), Block: uint64(i), Index: uint32(i)})
			}
		}(w)
	}
	wg.Wait()
	if r.Total() != workers*per {
		t.Fatalf("Total = %d, want %d", r.Total(), workers*per)
	}
	if n := len(r.Snapshot()); n != 128 {
		t.Fatalf("kept %d, want capacity 128", n)
	}
}

// lifecycleTrace is one record of every lifecycle kind — the vocabulary of
// a simulated run — with the fields its emitter sets.
func lifecycleTrace() []Span {
	const t0 = int64(1_000_000)
	return []Span{
		{Kind: SpanRunMeta, Block: 1, TimeNS: t0, Wire: 5, Scheme: "emss(n=4,m=2,d=1)", Root: 5},
		{Kind: SpanSent, Block: 1, Index: 1, TimeNS: t0 + 1, Wire: 1},
		{Kind: SpanDropped, Block: 1, Index: 3, TimeNS: t0 + 2, Reason: "loss", Receiver: 1, Wire: 3},
		{Kind: SpanDelivered, Block: 1, Index: 1, TimeNS: t0 + 3, Reason: "forged", Receiver: 1, Wire: 1, OutOfOrder: true},
		{Kind: SpanCorrupted, Block: 1, Index: 4, TimeNS: t0 + 4, Reason: "truncated", Receiver: 1, Wire: 4},
		{Kind: SpanForgedInjected, Block: 1, Index: 1, TimeNS: t0 + 5, Receiver: 1, Wire: 1},
		{Kind: SpanForgedRejected, Block: 1, Index: 1, TimeNS: t0 + 6, Receiver: 1, Wire: 1},
		{Kind: SpanMsgBuffered, Block: 1, Index: 2, TimeNS: t0 + 7, Receiver: 1, Depth: 1},
		{Kind: SpanHashBuffered, Block: 1, Index: 4, TimeNS: t0 + 8, Receiver: 1},
		{Kind: SpanOverflowDropped, Block: 1, Index: 4, TimeNS: t0 + 9, Receiver: 1, Depth: 1},
		{Kind: SpanAuthenticate, Block: 1, Index: 2, TimeNS: t0 + 10, DurNS: 7, Receiver: 1},
		{Kind: SpanReject, Block: 1, Index: 1, TimeNS: t0 + 11, Reason: "bad_signature", Receiver: 1},
		{Kind: SpanUnsafe, Block: 1, Index: 3, TimeNS: t0 + 12, Reason: "deadline", Receiver: 1},
	}
}

// TestTraceGoldenSchema pins one line per lifecycle kind beside the serving
// tier's lines in spans.golden.jsonl: together they are the whole trace
// grammar. The lines go through the sink's write-through, each stamped by
// its receiver's view, and read back equal.
// Regenerate with: go test ./internal/obs -run TestTraceGoldenSchema -update
func TestTraceGoldenSchema(t *testing.T) {
	var buf bytes.Buffer
	sink := NewSpanSink(KeepAll, &buf)
	for _, s := range lifecycleTrace() {
		sink.ForReceiver(s.Receiver).Record(s)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "trace.golden.jsonl"), buf.Bytes())
	got, skipped, err := ReadSpans(&buf)
	if err != nil || skipped != 0 {
		t.Fatalf("ReadSpans: %d skipped, err %v", skipped, err)
	}
	if !slices.Equal(got, sink.Snapshot()) {
		t.Errorf("read back %+v\nrecorded %+v", got, sink.Snapshot())
	}
	kinds := make(map[SpanKind]bool)
	for _, s := range got {
		kinds[s.Kind] = true
	}
	if len(kinds) != len(got) {
		t.Errorf("%d records cover %d kinds, want one line per kind", len(got), len(kinds))
	}
}
