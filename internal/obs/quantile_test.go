package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestHistogramQuantileAccessors pins the instrument-level quantile API the
// lab dashboard and regression gates consume: Quantile/P50/P95/P99 on a
// live *Histogram agree with the underlying HistogramData estimates, and a
// nil instrument reports zeros instead of panicking.
func TestHistogramQuantileAccessors(t *testing.T) {
	h := &Histogram{}
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	d := h.Data()
	for _, tc := range []struct {
		name string
		got  float64
		want float64
	}{
		{"Quantile(0.5)", h.Quantile(0.5), d.Quantile(0.5)},
		{"P50", h.P50(), d.P50()},
		{"P95", h.P95(), d.P95()},
		{"P99", h.P99(), d.P99()},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
	// Log2 buckets quantize the estimate; demand only bucket-level sanity:
	// monotone in q and inside the observed range.
	if !(d.P50() <= d.P95() && d.P95() <= d.P99()) {
		t.Errorf("quantiles not monotone: p50=%v p95=%v p99=%v", d.P50(), d.P95(), d.P99())
	}
	if d.P50() < 1 || d.P99() > 1000 {
		t.Errorf("quantiles escape observed range: p50=%v p99=%v", d.P50(), d.P99())
	}
	if d.P95() < 500 {
		t.Errorf("p95 = %v, implausibly low for uniform 1..1000", d.P95())
	}

	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 || nilH.P50() != 0 || nilH.P95() != 0 || nilH.P99() != 0 {
		t.Error("nil histogram quantiles must be 0")
	}
}

// TestSnapshotP95Exposed checks the new p95 summary reaches the exposition
// snapshot alongside the existing quantiles.
func TestSnapshotP95Exposed(t *testing.T) {
	var d HistogramData
	for v := int64(1); v <= 100; v++ {
		d.Observe(v)
	}
	s := snapshotOf(d)
	if s.P95 != d.Quantile(0.95) {
		t.Errorf("snapshot P95 = %v, want %v", s.P95, d.Quantile(0.95))
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"p95":`) {
		t.Errorf("snapshot JSON missing p95: %s", b)
	}
}

// TestSnapshotMarshalOrdered pins the ordered-marshal contract: instrument
// names appear in sorted order in the JSON bytes regardless of insertion
// order, and two registries with the same contents marshal identically.
func TestSnapshotMarshalOrdered(t *testing.T) {
	build := func(names []string) Snapshot {
		reg := NewRegistry()
		for i, n := range names {
			reg.Counter("c." + n).Add(int64(i + 1))
			reg.Gauge("g." + n).Set(int64(i + 1))
			reg.Histogram("h." + n).Observe(int64(i + 1))
		}
		// Re-apply deterministic values so both insertion orders agree.
		for _, n := range names {
			reg.Gauge("g." + n).Set(7)
		}
		snap := reg.Snapshot()
		for k := range snap.Counters {
			snap.Counters[k] = 7
		}
		for k, h := range snap.Histograms {
			h.Sum, h.Min, h.Max, h.Mean = 1, 1, 1, 1
			h.P50, h.P90, h.P95, h.P99 = 1, 1, 1, 1
			h.Count = 1
			h.Buckets = []Bucket{{Le: 1, Count: 1}}
			snap.Histograms[k] = h
		}
		return snap
	}
	a, err := json.Marshal(build([]string{"zeta", "alpha", "mid"}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(build([]string{"mid", "zeta", "alpha"}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("snapshots differ across insertion orders:\n%s\n%s", a, b)
	}
	if za, zb := bytes.Index(a, []byte("c.alpha")), bytes.Index(a, []byte("c.zeta")); za == -1 || zb == -1 || za > zb {
		t.Errorf("counter names not in sorted order: %s", a)
	}
	var back Snapshot
	if err := json.Unmarshal(a, &back); err != nil {
		t.Fatalf("ordered marshal must round-trip: %v", err)
	}
	if back.Counters["c.alpha"] != 7 || back.Histograms["h.mid"].Count != 1 {
		t.Errorf("round-trip lost values: %+v", back)
	}
}

// TestTimedSnapshotSeriesRoundTrip writes a JSONL metrics series and reads
// it back, including tolerance for a torn trailing line.
func TestTimedSnapshotSeriesRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("server.published").Add(3)
	reg.Histogram("server.root_hold_ns").Observe(1500)

	var buf bytes.Buffer
	for i := int64(1); i <= 3; i++ {
		reg.Counter("server.published").Add(1)
		ts := TimedSnapshot{AtUnixNS: i * 1000, Metrics: reg.Snapshot()}
		if err := ts.WriteJSONLine(&buf); err != nil {
			t.Fatal(err)
		}
	}
	buf.WriteString(`{"at_unix_ns": 4000, "metrics": {"counters": {"tor`) // torn line

	series, skipped, err := ReadSnapshotLines(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series length = %d, want 3", len(series))
	}
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1 (torn line)", skipped)
	}
	if series[0].AtUnixNS != 1000 || series[2].AtUnixNS != 3000 {
		t.Errorf("timestamps lost: %+v", series)
	}
	if got := series[2].Metrics.Counters["server.published"]; got != 6 {
		t.Errorf("final published = %d, want 6", got)
	}
	if series[1].Metrics.Histograms["server.root_hold_ns"].Count != 1 {
		t.Error("histogram snapshot lost in series")
	}
}
