package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// resultSet is the records of one file by workload, untraced and traced
// apart: runs[workload][trace] lists that workload's runs.
type resultSet map[string][2][]record

func readResults(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := resultSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Workload == "" || rec.Trace < 0 || rec.Trace > 1 {
			return nil, fmt.Errorf("%s:%d: not a labelled result (run with -workload all)", path, line)
		}
		runs := set[rec.Workload]
		runs[rec.Trace] = append(runs[rec.Trace], rec)
		set[rec.Workload] = runs
	}
	return set, sc.Err()
}

func values(runs []record, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles of Python's statistics.quantiles(xs,
// n=4): the spread the benchmark's bounds are held against. It is 0 for
// fewer than two values.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sortedCopy(xs)
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(quartile(3)-quartile(1), pyMedian(s))
}

// pyMedian is the median of sorted, averaging the middle two of an even
// count as Python's statistics.median does.
func pyMedian(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// runCompare prints, per workload and metric, how b differs from a, held
// against the metric's bound, and fails when b is worse than a by more
// than a bound, when either set holds a failed run, or when the sets do
// not cover the same workloads.
func runCompare(sp *spec, pathA, pathB string, out io.Writer) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tmetric\tunit\tmedian a\tmedian b\tspread a\tspread b\tb worse by\tbound\tverdict")
	var disagree int
	for _, wl := range sp.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra[0])+len(ra[1]) == 0 && len(rb[0])+len(rb[1]) == 0 {
			continue
		}
		if (len(ra[0]) == 0) != (len(rb[0]) == 0) || (len(ra[1]) == 0) != (len(rb[1]) == 0) {
			fmt.Fprintf(w, "%s\t\t\t\t\t\t\t\t\tin one set only\n", wl.Name)
			disagree++
			continue
		}
		for _, runs := range [][]record{ra[0], ra[1], rb[0], rb[1]} {
			for _, r := range runs {
				if !r.Correct || r.Failed > 0 {
					fmt.Fprintf(w, "%s\tfailed_share\t\t\t\t\t\t\t0\tFAILED (seed %d: %d of %d)\n", wl.Name, r.Seed, r.Failed, r.Attempted)
					disagree++
				}
			}
		}
		row := func(ms metricSpec, va, vb []float64, bounded bool) {
			if len(va) == 0 || len(vb) == 0 {
				return
			}
			ma, mb := pyMedian(sortedCopy(va)), pyMedian(sortedCopy(vb))
			worse := ratio(mb-ma, ma)
			if ms.Better == "higher" {
				worse = -worse
			}
			verdict, bound := "", ""
			if bounded {
				bound = fmt.Sprintf("%.1f%%", 100*ms.Bound)
				switch {
				case spread(va) > ms.Bound || spread(vb) > ms.Bound:
					verdict = "unresolved"
				case worse > ms.Bound:
					verdict = "WORSE"
					disagree++
				case worse < -ms.Bound:
					verdict = "better"
				default:
					verdict = "same"
				}
			} else if ma == 0 && mb == 0 {
				return // a layer this workload does not exercise
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%.6g\t%.6g\t%.1f%%\t%.1f%%\t%+.1f%%\t%s\t%s\n",
				wl.Name, ms.Name, ms.Unit, ma, mb, 100*spread(va), 100*spread(vb), 100*worse, bound, verdict)
		}
		for _, ms := range sp.EndToEnd {
			row(ms, values(ra[0], ms.Name), values(rb[0], ms.Name), true)
		}
		for _, ms := range sp.PerLayer {
			row(ms, values(ra[1], ms.Name), values(rb[1], ms.Name), false)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if disagree > 0 {
		return fmt.Errorf("the result sets disagree in %d places", disagree)
	}
	return nil
}
