package obs

import (
	"math"
	"math/bits"
	"sync"
	"time"
)

// numBuckets is the fixed bucket count of every histogram. Buckets are
// log-scale powers of two: bucket 0 counts values <= 1 (including zero and
// negatives), bucket i counts values in (2^(i-1), 2^i]. Sixty-four buckets
// cover the whole int64 range, so nanosecond latencies and buffer depths
// share one shape with no configuration.
const numBuckets = 64

// bucketUpperBound returns the inclusive upper bound of bucket i
// (math.MaxInt64 for the last bucket).
func bucketUpperBound(i int) int64 {
	if i <= 0 {
		return 1
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1) << uint(i)
}

func bucketFor(v int64) int {
	if v <= 1 {
		return 0
	}
	// ceil(log2(v)) is the bit length of v-1: one instruction, at most 63.
	return min(bits.Len64(uint64(v-1)), numBuckets-1)
}

// HistogramData is the plain-value form of a histogram: copyable,
// comparable, mergeable, embeddable in stats structs (verifier.Stats,
// stream.Totals). It is NOT safe for concurrent use; Histogram wraps it
// with a mutex for registry instruments.
type HistogramData struct {
	Count   int64
	Sum     int64
	MinSeen int64 // valid only when Count > 0
	MaxSeen int64
	Buckets [numBuckets]int64
}

// Observe records one value.
func (h *HistogramData) Observe(v int64) {
	if h.Count == 0 || v < h.MinSeen {
		h.MinSeen = v
	}
	if h.Count == 0 || v > h.MaxSeen {
		h.MaxSeen = v
	}
	h.Count++
	h.Sum += v
	h.Buckets[bucketFor(v)]++
}

// Merge folds another histogram's observations into h. Counts and sums
// saturate at the int64 limits instead of wrapping: merging is used to
// aggregate across long-lived streams and replayed series, where a
// wrapped negative count would poison every downstream quantile.
func (h *HistogramData) Merge(o HistogramData) {
	if o.Count == 0 {
		return
	}
	if h.Count == 0 || o.MinSeen < h.MinSeen {
		h.MinSeen = o.MinSeen
	}
	if h.Count == 0 || o.MaxSeen > h.MaxSeen {
		h.MaxSeen = o.MaxSeen
	}
	h.Count = satAdd(h.Count, o.Count)
	h.Sum = satAdd(h.Sum, o.Sum)
	for i := range h.Buckets {
		h.Buckets[i] = satAdd(h.Buckets[i], o.Buckets[i])
	}
}

// satAdd adds two int64s, clamping at the representable limits.
func satAdd(a, b int64) int64 {
	s := a + b
	if b > 0 && s < a {
		return math.MaxInt64
	}
	if b < 0 && s > a {
		return math.MinInt64
	}
	return s
}

// DeltaFrom returns the observations h gained since prev, assuming prev is
// an earlier copy of the same accumulating histogram (bucket counts are
// monotone between the two). Min/Max of the delta are not recoverable from
// bucket counts, so the current extrema are kept as a conservative
// envelope; quantiles of the delta stay clamped to a valid range.
func (h HistogramData) DeltaFrom(prev HistogramData) HistogramData {
	d := HistogramData{
		Count:   h.Count - prev.Count,
		Sum:     h.Sum - prev.Sum,
		MinSeen: h.MinSeen,
		MaxSeen: h.MaxSeen,
	}
	if d.Count <= 0 {
		return HistogramData{}
	}
	for i := range d.Buckets {
		if v := h.Buckets[i] - prev.Buckets[i]; v > 0 {
			d.Buckets[i] = v
		}
	}
	return d
}

// Mean returns the arithmetic mean of all observations (0 when empty).
func (h HistogramData) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile estimates the q-th quantile (q in [0,1]) from the bucket
// counts. Within a bucket the estimate interpolates linearly between the
// bucket bounds; exact for bucket 0 and clamped to the observed min/max.
func (h HistogramData) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count)
	cum := int64(0)
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo := float64(0)
			if i > 0 {
				lo = float64(bucketUpperBound(i - 1))
			}
			hi := float64(bucketUpperBound(i))
			frac := (rank - float64(cum)) / float64(c)
			est := lo + frac*(hi-lo)
			if est < float64(h.MinSeen) {
				est = float64(h.MinSeen)
			}
			if est > float64(h.MaxSeen) {
				est = float64(h.MaxSeen)
			}
			return est
		}
		cum += c
	}
	return float64(h.MaxSeen)
}

// P50 returns the estimated median. It is the quantile triple the
// dashboard and regression gates consume, precomputed here so callers do
// not hard-code quantile constants.
func (h HistogramData) P50() float64 { return h.Quantile(0.50) }

// P95 returns the estimated 95th percentile.
func (h HistogramData) P95() float64 { return h.Quantile(0.95) }

// P99 returns the estimated 99th percentile.
func (h HistogramData) P99() float64 { return h.Quantile(0.99) }

// Histogram is a concurrency-safe registry instrument over HistogramData.
type Histogram struct {
	mu   sync.Mutex
	data HistogramData
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.data.Observe(v)
	h.mu.Unlock()
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Nanoseconds())
}

// Quantile estimates the q-th quantile of the accumulated observations
// under the instrument's lock. Shorthand for h.Data().Quantile(q); a nil
// histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	return h.Data().Quantile(q)
}

// P50 returns the estimated median of the accumulated observations.
func (h *Histogram) P50() float64 { return h.Quantile(0.50) }

// P95 returns the estimated 95th percentile.
func (h *Histogram) P95() float64 { return h.Quantile(0.95) }

// P99 returns the estimated 99th percentile.
func (h *Histogram) P99() float64 { return h.Quantile(0.99) }

// Data returns a copy of the accumulated histogram.
func (h *Histogram) Data() HistogramData {
	if h == nil {
		return HistogramData{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.data
}
