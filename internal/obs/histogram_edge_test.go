package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestQuantileEmpty(t *testing.T) {
	var h HistogramData
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	if h.Mean() != 0 {
		t.Errorf("empty Mean = %v, want 0", h.Mean())
	}
}

func TestQuantileSingleBucket(t *testing.T) {
	// All observations land in one bucket: (2^9, 2^10]. Every quantile
	// must clamp to the observed [min, max], never to the bucket bounds.
	var h HistogramData
	for i := 0; i < 100; i++ {
		h.Observe(700)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 700 {
			t.Errorf("Quantile(%v) = %v, want exactly 700 (min==max clamp)", q, got)
		}
	}

	// Distinct min/max inside the same bucket: estimates stay within them.
	var g HistogramData
	g.Observe(520)
	g.Observe(1000)
	for _, q := range []float64{0, 0.5, 1} {
		got := g.Quantile(q)
		if got < 520 || got > 1000 {
			t.Errorf("Quantile(%v) = %v, outside observed [520,1000]", q, got)
		}
	}

	// Out-of-range q clamps rather than extrapolating.
	if lo, hi := g.Quantile(-5), g.Quantile(5); lo < 520 || hi > 1000 {
		t.Errorf("clamped quantiles escaped range: %v, %v", lo, hi)
	}
}

func TestQuantileSingleObservation(t *testing.T) {
	var h HistogramData
	h.Observe(12345)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 12345 {
			t.Errorf("Quantile(%v) = %v, want 12345", q, got)
		}
	}
}

func TestMergeSaturatingCounts(t *testing.T) {
	big := HistogramData{
		Count:   math.MaxInt64 - 1,
		Sum:     math.MaxInt64 - 1,
		MinSeen: 1,
		MaxSeen: 2,
	}
	big.Buckets[1] = math.MaxInt64 - 1
	other := HistogramData{Count: 10, Sum: 10, MinSeen: 1, MaxSeen: 2}
	other.Buckets[1] = 10

	big.Merge(other)
	if big.Count != math.MaxInt64 {
		t.Fatalf("Count = %d, want saturated MaxInt64", big.Count)
	}
	if big.Sum != math.MaxInt64 {
		t.Fatalf("Sum = %d, want saturated MaxInt64", big.Sum)
	}
	if big.Buckets[1] != math.MaxInt64 {
		t.Fatalf("Buckets[1] = %d, want saturated MaxInt64", big.Buckets[1])
	}
	// A saturated histogram still yields finite, in-range quantiles.
	if q := big.Quantile(0.99); q < 1 || q > 2 {
		t.Fatalf("saturated Quantile(0.99) = %v, want within [1,2]", q)
	}

	neg := HistogramData{Count: 1, Sum: math.MinInt64 + 1, MinSeen: -5, MaxSeen: -5}
	neg.Buckets[0] = 1
	more := HistogramData{Count: 1, Sum: -10, MinSeen: -10, MaxSeen: -10}
	more.Buckets[0] = 1
	neg.Merge(more)
	if neg.Sum != math.MinInt64 {
		t.Fatalf("negative Sum = %d, want saturated MinInt64", neg.Sum)
	}
}

func TestSatAdd(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{1, 2, 3},
		{math.MaxInt64, 1, math.MaxInt64},
		{math.MaxInt64 - 1, 5, math.MaxInt64},
		{math.MinInt64, -1, math.MinInt64},
		{math.MinInt64 + 1, -5, math.MinInt64},
		{-3, 7, 4},
		{math.MaxInt64, math.MinInt64, -1},
	}
	for _, c := range cases {
		if got := satAdd(c.a, c.b); got != c.want {
			t.Errorf("satAdd(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDeltaFrom(t *testing.T) {
	var prev HistogramData
	prev.Observe(100)
	prev.Observe(2000)
	cur := prev
	cur.Observe(100)
	cur.Observe(50)
	d := cur.DeltaFrom(prev)
	if d.Count != 2 || d.Sum != 150 {
		t.Fatalf("delta count=%d sum=%d, want 2/150", d.Count, d.Sum)
	}
	if d.Buckets[bucketFor(100)] != 1 || d.Buckets[bucketFor(50)] != 1 {
		t.Fatalf("delta buckets wrong: %+v", d.Buckets)
	}
	if empty := cur.DeltaFrom(cur); empty.Count != 0 {
		t.Fatalf("self-delta = %+v, want empty", empty)
	}
	// A delta never goes negative even if inputs are inconsistent.
	if back := prev.DeltaFrom(cur); back.Count != 0 {
		t.Fatalf("reversed delta = %+v, want empty", back)
	}
}

// TestConcurrentObserveSnapshotDeterminism drives one registry histogram
// from many goroutines with a fixed multiset of values and requires the
// final data — and its serialized snapshot bytes — to match a sequential
// fold of the same values. Observation order may vary; totals may not.
func TestConcurrentObserveSnapshotDeterminism(t *testing.T) {
	vals := make([]int64, 0, 1024)
	for i := 0; i < 1024; i++ {
		vals = append(vals, int64(i*i%5000))
	}
	var want HistogramData
	for _, v := range vals {
		want.Observe(v)
	}

	h := &Histogram{}
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(vals); i += workers {
				h.Observe(vals[i])
			}
		}(w)
	}
	wg.Wait()
	if got := h.Data(); got != want {
		t.Fatalf("concurrent fold diverged:\ngot  %+v\nwant %+v", got, want)
	}

	a, err := json.Marshal(snapshotOf(h.Data()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(snapshotOf(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshot bytes diverged:\n%s\n%s", a, b)
	}
}

// bucketForLoop is the shift loop bucketFor replaced: the index of the
// highest set bit of v-1, capped at the last bucket.
func bucketForLoop(v int64) int {
	if v <= 1 {
		return 0
	}
	b := 0
	for x := uint64(v - 1); x > 0; x >>= 1 {
		b++
	}
	return min(b, numBuckets-1)
}

// TestBucketForMatchesLoop pins bucketFor to the shift loop at every
// bucket edge: v <= 1, 2 and 3, 2^k-1, 2^k and 2^k+1 for k = 1..62, and
// MaxInt64.
func TestBucketForMatchesLoop(t *testing.T) {
	vs := []int64{math.MinInt64, -1, 0, 1, 2, 3, math.MaxInt64}
	for k := 1; k <= 62; k++ {
		vs = append(vs, int64(1)<<k-1, int64(1)<<k, int64(1)<<k+1)
	}
	for _, v := range vs {
		if got, want := bucketFor(v), bucketForLoop(v); got != want {
			t.Errorf("bucketFor(%d) = %d, want %d", v, got, want)
		}
	}
}
