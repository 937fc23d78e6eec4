package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as single samples,
// histograms as cumulative `_bucket{le="..."}` series with `_sum` and
// `_count`. Instrument names are sanitized to the Prometheus charset
// (dots become underscores), and all series are emitted in sorted name
// order, so the output is deterministic for a given snapshot.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var names []string
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := prometheusName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		pn := prometheusName(n)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := writePrometheusHistogram(w, prometheusName(n), s.Histograms[n]); err != nil {
			return err
		}
	}
	return nil
}

func writePrometheusHistogram(w io.Writer, pn string, h HistogramSnapshot) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", pn); err != nil {
		return err
	}
	// Snapshot buckets are per-bucket counts over the non-empty log2
	// buckets; Prometheus buckets are cumulative.
	cum := int64(0)
	for _, b := range h.Buckets {
		cum += b.Count
		if b.Le >= math.MaxInt64 {
			// The top log2 bucket is unbounded; it renders as +Inf below.
			continue
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, b.Le, cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
		pn, h.Count, pn, h.Sum, pn, h.Count)
	return err
}

// prometheusName maps a registry instrument name onto the Prometheus
// metric-name charset [a-zA-Z_:][a-zA-Z0-9_:]*. The registry convention
// `layer.metric_name` becomes `layer_metric_name`.
func prometheusName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
