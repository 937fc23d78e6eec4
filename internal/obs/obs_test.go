package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketBoundaries(t *testing.T) {
	// Bucket 0 is (-inf, 1]; bucket i is (2^(i-1), 2^i].
	cases := []struct {
		v    int64
		want int
	}{
		{math.MinInt64, 0}, {-5, 0}, {0, 0}, {1, 0},
		{2, 1},
		{3, 2}, {4, 2},
		{5, 3}, {8, 3},
		{9, 4}, {16, 4},
		{17, 5},
		{1 << 20, 20},
		{1<<20 + 1, 21},
		{math.MaxInt64, numBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketFor(c.v); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	for i := 1; i < numBuckets-1; i++ {
		ub := bucketUpperBound(i)
		if got := bucketFor(ub); got != i {
			t.Errorf("upper bound %d of bucket %d lands in bucket %d", ub, i, got)
		}
		if got := bucketFor(ub + 1); got != i+1 {
			t.Errorf("value %d just above bucket %d lands in bucket %d, want %d",
				ub+1, i, got, i+1)
		}
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	var h HistogramData
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count != 1000 || h.MinSeen != 1 || h.MaxSeen != 1000 {
		t.Fatalf("count/min/max = %d/%d/%d", h.Count, h.MinSeen, h.MaxSeen)
	}
	if got := h.Mean(); math.Abs(got-500.5) > 1e-9 {
		t.Errorf("mean %v, want 500.5", got)
	}
	// Log-scale buckets are coarse: accept the right power-of-two band.
	p50 := h.Quantile(0.5)
	if p50 < 256 || p50 > 1000 {
		t.Errorf("p50 %v outside [256,1000]", p50)
	}
	if q := h.Quantile(1); q != 1000 {
		t.Errorf("p100 %v, want clamped max 1000", q)
	}
	if q := h.Quantile(0); q < 1 {
		t.Errorf("p0 %v below min", q)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, sum HistogramData
	for v := int64(0); v < 100; v++ {
		a.Observe(v)
		sum.Observe(v)
	}
	for v := int64(100); v < 200; v += 7 {
		b.Observe(v)
		sum.Observe(v)
	}
	a.Merge(b)
	if a != sum {
		t.Error("merge result differs from direct observation")
	}
	var empty HistogramData
	a.Merge(empty)
	if a != sum {
		t.Error("merging an empty histogram changed the data")
	}
}

func TestConcurrentCountersAndHistograms(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("test.ops")
			g := reg.Gauge("test.high_water")
			h := reg.Histogram("test.latency")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.SetMax(int64(w*perWorker + i))
				h.Observe(int64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter("test.ops").Value(); got != workers*perWorker {
		t.Errorf("counter %d, want %d", got, workers*perWorker)
	}
	if got := reg.Gauge("test.high_water").Value(); got != workers*perWorker-1 {
		t.Errorf("gauge high-water %d, want %d", got, workers*perWorker-1)
	}
	if got := reg.Histogram("test.latency").Data().Count; got != workers*perWorker {
		t.Errorf("histogram count %d, want %d", got, workers*perWorker)
	}
}

func TestNilRegistryAndInstrumentsAreSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.SetMax(2)
	g.Add(1)
	h.Observe(5)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Data().Count != 0 {
		t.Error("nil instruments must drop updates")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
}

func TestSnapshotExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("crypto.sign_ops").Add(7)
	reg.Gauge("stream.active_blocks").Set(3)
	h := reg.Histogram("verifier.time_to_auth_ns")
	for _, v := range []int64{10, 100, 1000, 10000} {
		h.Observe(v)
	}
	snap := reg.Snapshot()

	var jsonBuf bytes.Buffer
	if err := snap.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(jsonBuf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["crypto.sign_ops"] != 7 {
		t.Errorf("JSON round-trip counter = %d", back.Counters["crypto.sign_ops"])
	}
	if back.Histograms["verifier.time_to_auth_ns"].Count != 4 {
		t.Errorf("JSON round-trip histogram count = %d",
			back.Histograms["verifier.time_to_auth_ns"].Count)
	}

	var textBuf bytes.Buffer
	if err := snap.WriteText(&textBuf); err != nil {
		t.Fatal(err)
	}
	text := textBuf.String()
	for _, want := range []string{"crypto.sign_ops", "stream.active_blocks", "verifier.time_to_auth_ns"} {
		if !strings.Contains(text, want) {
			t.Errorf("text exposition missing %q:\n%s", want, text)
		}
	}
}

// TestSinkWriteThroughRoundTrip writes records through a sink that keeps
// them too (one run feeding a -trace file and an in-memory report at once)
// and reads the stream back equal to what was kept.
func TestSinkWriteThroughRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewSpanSink(KeepAll, &buf)
	in := []Span{
		{Kind: SpanSent, Wire: 1, Index: 1, TimeNS: 1000},
		{Kind: SpanDropped, Wire: 2, Index: 2, Reason: "loss"},
		{Kind: SpanDelivered, Wire: 3, Index: 3, OutOfOrder: true},
		{Kind: SpanAuthenticate, Index: 3, Block: 9, DurNS: 12345},
	}
	for _, e := range in {
		tr.Record(e)
	}
	if tr.Total() != int64(len(in)) {
		t.Fatalf("recorded %d, want %d", tr.Total(), len(in))
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	out, skipped, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("skipped %d lines of a clean trace", skipped)
	}
	kept := tr.Snapshot()
	if len(out) != len(in) || len(kept) != len(in) {
		t.Fatalf("read %d and kept %d records, want %d", len(out), len(kept), len(in))
	}
	for i := range in {
		want := in[i]
		want.Type, want.Trace = spanTypeField, traceID(want.Stream, want.Block)
		if out[i] != want || kept[i] != want {
			t.Errorf("record %d: read %+v, kept %+v, want %+v", i, out[i], kept[i], want)
		}
	}
}

// TestReadSpansDamagedTrace feeds ReadSpans the damage real trace files
// accumulate — interleaved stderr garbage, blank lines, JSON that is not a
// trace record, and a final line truncated mid-record — and expects the
// intact records back with a per-line skip count instead of a hard error.
func TestReadSpansDamagedTrace(t *testing.T) {
	in := strings.Join([]string{
		`{"type":"span","kind":"sent","wire":1,"index":1}`,
		`panic: runtime error: index out of range`,
		``,
		`{"not":"a record"}`,
		`{"type":"span","kind":"delivered","wire":1,"index":1}`,
		`42`,
		`{"type":"sent","recv":-1,"wire":1,"index":1}`,       // the pre-span event grammar
		`{"type":"span","kind":"authenticate","wire":1,"ind`, // truncated, no newline
	}, "\n")
	spans, skipped, err := ReadSpans(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("read %d records, want 2: %+v", len(spans), spans)
	}
	if spans[0].Kind != SpanSent || spans[1].Kind != SpanDelivered {
		t.Errorf("wrong records survived: %+v", spans)
	}
	// Skipped: the panic line, the foreign object, the bare number, the old
	// event line and the truncated tail. Blank lines are not damage.
	if skipped != 5 {
		t.Errorf("skipped = %d, want 5", skipped)
	}
}

// TestEmptyHistogramNeverNaN pins the empty-histogram contract: Mean and
// Quantile return 0 (never NaN, which would also poison JSON encoding),
// and the snapshot of an empty histogram is fully zero-valued.
func TestEmptyHistogramNeverNaN(t *testing.T) {
	var h HistogramData
	if m := h.Mean(); m != 0 || math.IsNaN(m) {
		t.Errorf("empty Mean = %v, want 0", m)
	}
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if v := h.Quantile(q); v != 0 || math.IsNaN(v) {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, v)
		}
	}
	s := snapshotOf(h)
	if s.Count != 0 || s.Sum != 0 || s.Min != 0 || s.Max != 0 ||
		s.Mean != 0 || s.P50 != 0 || s.P90 != 0 || s.P99 != 0 || s.Buckets != nil {
		t.Errorf("empty snapshot not zero-valued: %+v", s)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Errorf("empty snapshot must marshal: %v", err)
	}
	// Negative-only observations exercise the min/max clamp paths.
	h.Observe(-5)
	for _, q := range []float64{0, 0.5, 1} {
		if v := h.Quantile(q); math.IsNaN(v) {
			t.Errorf("negative-only Quantile(%v) is NaN", q)
		}
	}
}

// TestSnapshotExpositionDeterministic renders the same registry twice
// through every exposition and demands byte identity.
func TestSnapshotExpositionDeterministic(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b.ops").Add(2)
	reg.Counter("a.ops").Add(1)
	reg.Gauge("z.depth").Set(9)
	reg.Histogram("m.lat").Observe(100)
	reg.Histogram("empty.hist") // registered, never observed
	snap := reg.Snapshot()
	render := func() (string, string, string) {
		var j, txt, prom bytes.Buffer
		if err := snap.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := snap.WriteText(&txt); err != nil {
			t.Fatal(err)
		}
		if err := snap.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		return j.String(), txt.String(), prom.String()
	}
	j1, t1, p1 := render()
	j2, t2, p2 := render()
	if j1 != j2 || t1 != t2 || p1 != p2 {
		t.Error("exposition output is not deterministic")
	}
}

func TestSinkViewStampsReceiver(t *testing.T) {
	sink := NewSpanSink(KeepAll, nil)
	sink.ForReceiver(42).Record(Span{Kind: SpanAuthenticate, Index: 5})
	sink.Record(Span{Kind: SpanSent, Index: 5, Receiver: 7})
	got := sink.Snapshot()
	if len(got) != 2 || got[0].Receiver != 42 || got[1].Receiver != 0 {
		t.Fatalf("records = %+v, want recv 42 from the view and 0 from the sink itself", got)
	}
}

type failingWriter struct{ failed bool }

func (f *failingWriter) Write(p []byte) (int, error) {
	f.failed = true
	return 0, bytes.ErrTooLarge
}

func TestSinkReportsWriteError(t *testing.T) {
	tr := NewSpanSink(0, &failingWriter{})
	// Overflow the 64 KiB buffer so the flush path hits the writer.
	big := Span{Kind: SpanSent, Reason: strings.Repeat("x", 1<<10)}
	for i := 0; i < 100; i++ {
		tr.Record(big)
	}
	if err := tr.Close(); err == nil {
		t.Error("Close should surface the write error")
	}
}
