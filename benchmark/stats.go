package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// clock reads monotonic nanoseconds since one measurement began, so every
// goroutine of a run stamps on the same axis.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// sample is one timed operation: when it was due (the window it belongs
// to) and how long it took.
type sample struct{ at, dur int64 }

// quantile returns the q-quantile of sorted by nearest rank. It takes a
// sorted slice, unlike internal/stats.Quantile, because a run asks several
// quantiles of millions of samples and should sort them once.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func sortedDurations(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.dur)
	}
	sort.Float64s(out)
	return out
}

// tailQuantile is the highest percentile, capped at p99, that still has ten
// samples beyond it; with fewer than twenty samples that is the median.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 0.5
	}
	return min(0.99, 1-10/float64(n))
}

// tail reports the tail latency of samples: the median over one-second
// windows of each window's tailQuantile, so one stall on a shared machine
// moves one window and not the metric. When no window holds twenty samples
// the quantile is taken over the whole run instead.
func tail(samples []sample, from int64) float64 {
	windows := map[int64][]float64{}
	for _, s := range samples {
		w := (s.at - from) / int64(time.Second)
		windows[w] = append(windows[w], float64(s.dur))
	}
	var perWindow []float64
	for _, durs := range windows {
		if len(durs) >= 20 {
			sort.Float64s(durs)
			perWindow = append(perWindow, quantile(durs, tailQuantile(len(durs))))
		}
	}
	if len(perWindow) > 0 {
		return median(perWindow)
	}
	return quantile(sortedDurations(samples), tailQuantile(len(samples)))
}

// procSnap is the process-level state read at each edge of a timed window.
type procSnap struct {
	at      time.Time
	cpu     time.Duration // user + system
	mallocs uint64
	bytes   uint64
	pause   uint64
	heapSys uint64
}

// snapProc reads CPU time always and the allocator only for traced runs:
// ReadMemStats stops the world, which an untraced run should not pay.
func snapProc(withMem bool) procSnap {
	s := procSnap{at: time.Now()}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if withMem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.mallocs, s.bytes, s.pause, s.heapSys = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs, ms.HeapSys
	}
	return s
}

// ratio is a/b, and 0 when b is 0: a layer that did no work reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procLayer turns two traced snapshots into the proc.* layer metrics for a
// window that completed ops operations.
func procLayer(layer map[string]float64, s0, s1 procSnap, ops float64) {
	layer["proc.allocs_per_msg"] = ratio(float64(s1.mallocs-s0.mallocs), ops)
	layer["proc.alloc_bytes_per_msg"] = ratio(float64(s1.bytes-s0.bytes), ops)
	layer["proc.gc_pause_ms"] = float64(s1.pause-s0.pause) / 1e6
	layer["proc.heap_peak_mb"] = float64(s1.heapSys) / (1 << 20)
}

// cpuPerOp is the window's process CPU time in microseconds per operation.
func cpuPerOp(s0, s1 procSnap, ops float64) float64 {
	return ratio(float64(s1.cpu-s0.cpu)/1e3, ops)
}
