package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// Bucket is one non-empty histogram bucket in a snapshot: Count values at
// most Le (and above the previous bucket's Le).
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the exposition form of a histogram: only non-empty
// buckets, plus precomputed summary statistics.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	Mean    float64  `json:"mean"`
	P50     float64  `json:"p50"`
	P90     float64  `json:"p90"`
	P95     float64  `json:"p95"`
	P99     float64  `json:"p99"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// snapshotOf condenses histogram data for exposition.
func snapshotOf(d HistogramData) HistogramSnapshot {
	s := HistogramSnapshot{
		Count: d.Count,
		Sum:   d.Sum,
		Mean:  d.Mean(),
		P50:   d.Quantile(0.50),
		P90:   d.Quantile(0.90),
		P95:   d.Quantile(0.95),
		P99:   d.Quantile(0.99),
	}
	if d.Count > 0 {
		s.Min = d.MinSeen
		s.Max = d.MaxSeen
	}
	for i, c := range d.Buckets {
		if c > 0 {
			s.Buckets = append(s.Buckets, Bucket{Le: bucketUpperBound(i), Count: c})
		}
	}
	return s
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures all instruments. A nil registry yields an empty (but
// non-nil-mapped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	ctrs := make(map[string]*Counter, len(r.ctrs))
	for k, v := range r.ctrs {
		ctrs[k] = v
	}
	gaugs := make(map[string]*Gauge, len(r.gaugs))
	for k, v := range r.gaugs {
		gaugs[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	for k, v := range ctrs {
		s.Counters[k] = v.Value()
	}
	for k, v := range gaugs {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = snapshotOf(v.Data())
	}
	return s
}

// MarshalJSON encodes the snapshot with every instrument name in sorted
// order. The ordering is written explicitly rather than left to
// encoding/json's map handling so that snapshot files are byte-comparable
// across runs, Go versions and ingestion tools by contract, not by
// accident: mclab joins snapshots from many runs and diffs them, and the
// dashboard golden tests pin the bytes.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('{')
	if err := marshalSorted(&buf, "counters", s.Counters); err != nil {
		return nil, err
	}
	buf.WriteByte(',')
	if err := marshalSorted(&buf, "gauges", s.Gauges); err != nil {
		return nil, err
	}
	buf.WriteByte(',')
	if err := marshalSorted(&buf, "histograms", s.Histograms); err != nil {
		return nil, err
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// marshalSorted writes `"section":{...}` with keys in sorted order.
func marshalSorted[V any](buf *bytes.Buffer, section string, m map[string]V) error {
	fmt.Fprintf(buf, "%q:{", section)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		if i > 0 {
			buf.WriteByte(',')
		}
		k, err := json.Marshal(n)
		if err != nil {
			return err
		}
		v, err := json.Marshal(m[n])
		if err != nil {
			return err
		}
		buf.Write(k)
		buf.WriteByte(':')
		buf.Write(v)
	}
	buf.WriteByte('}')
	return nil
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// TimedSnapshot stamps a snapshot with its capture time, the line format
// of periodic JSONL metrics series (mcserved -metrics-interval) that mclab
// ingests from long daemon runs.
type TimedSnapshot struct {
	AtUnixNS int64    `json:"at_unix_ns"`
	Metrics  Snapshot `json:"metrics"`
}

// WriteJSONLine appends the timed snapshot as one compact JSONL line.
func (t TimedSnapshot) WriteJSONLine(w io.Writer) error {
	b, err := json.Marshal(t)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadSnapshotLines decodes a JSONL metrics series, skipping undecodable
// lines (a daemon killed mid-write leaves a torn last line) and reporting
// how many were skipped.
func ReadSnapshotLines(r io.Reader) (series []TimedSnapshot, skipped int, err error) {
	skipped, err = scanJSONL(r, 1<<24, func(line []byte) bool {
		var t TimedSnapshot
		if json.Unmarshal(line, &t) != nil || (t.Metrics.Counters == nil && t.Metrics.Gauges == nil && t.Metrics.Histograms == nil) {
			return false
		}
		series = append(series, t)
		return true
	})
	return series, skipped, err
}

// WriteText writes a human-readable metrics table: counters and gauges as
// name/value lines, histograms as count/mean/p50/p90/p99/max lines. Names
// are sorted, so the output is deterministic.
func (s Snapshot) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	write := func(kind string, names []string, emit func(name string)) {
		if len(names) == 0 {
			return
		}
		sort.Strings(names)
		fmt.Fprintf(tw, "--- %s ---\t\n", kind)
		for _, n := range names {
			emit(n)
		}
	}
	var names []string
	for n := range s.Counters {
		names = append(names, n)
	}
	write("counters", names, func(n string) {
		fmt.Fprintf(tw, "%s\t%d\n", n, s.Counters[n])
	})
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	write("gauges", names, func(n string) {
		fmt.Fprintf(tw, "%s\t%d\n", n, s.Gauges[n])
	})
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	write("histograms (count mean p50 p90 p99 max)", names, func(n string) {
		h := s.Histograms[n]
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.0f\t%.0f\t%.0f\t%d\n",
			n, h.Count, h.Mean, h.P50, h.P90, h.P99, h.Max)
	})
	return tw.Flush()
}
