package lab

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmark is one row of a BENCH_<sha>.json file (scripts/bench.sh
// output). Numeric fields are pointers because the script emits JSON null
// for metrics a benchmark does not report (e.g. MB/s).
type benchmark struct {
	Name        string   `json:"name"`
	Iterations  int64    `json:"iterations"`
	NsPerOp     *float64 `json:"ns_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
	MBPerS      *float64 `json:"mb_per_s"`
}

// BenchFile is one perf snapshot, attributed to a commit.
type BenchFile struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	CPUs       int    `json:"cpus"`
	GoMaxProcs int    `json:"gomaxprocs"`
	BenchTime  string `json:"benchtime"`
	// GeneratedAtUnix orders snapshots in the trajectory; files from before
	// the field existed carry 0 and sort oldest, tie-broken by filename.
	GeneratedAtUnix int64       `json:"generated_at_unix,omitempty"`
	Benchmarks      []benchmark `json:"benchmarks"`

	// File is the source path (not serialized).
	File string `json:"-"`
}

// dirty reports whether the snapshot was taken on an unclean working
// tree (scripts/bench.sh -dirty). Older files tag only the filename, so
// both the commit field and the source path are consulted. dirty
// snapshots render in the dashboard but never gate: their numbers are
// not attributable to any commit.
func (b *BenchFile) dirty() bool {
	return strings.HasSuffix(b.Commit, "-dirty") ||
		strings.Contains(filepath.Base(b.File), "-dirty")
}

// shortCommit trims the commit hash for display, preserving a -dirty tag.
func (b *BenchFile) shortCommit() string {
	c := b.Commit
	dirty := ""
	if s, ok := strings.CutSuffix(c, "-dirty"); ok {
		c, dirty = s, "-dirty"
	}
	if len(c) > 7 {
		c = c[:7]
	}
	return c + dirty
}

// readBenchFile loads one BENCH_<sha>.json.
func readBenchFile(path string) (*BenchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf BenchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("lab: %s: %w", path, err)
	}
	bf.File = path
	return &bf, nil
}

// LoadBenchHistory gathers every BENCH_*.json under the given directories
// (non-recursive; missing directories are skipped) into chronological
// order: generated_at_unix ascending, ties and pre-field files by
// filename.
func LoadBenchHistory(dirs ...string) ([]*BenchFile, error) {
	var out []*BenchFile
	for _, dir := range dirs {
		matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
		if err != nil {
			return nil, err
		}
		sort.Strings(matches)
		for _, m := range matches {
			bf, err := readBenchFile(m)
			if err != nil {
				return nil, err
			}
			out = append(out, bf)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].GeneratedAtUnix != out[j].GeneratedAtUnix {
			return out[i].GeneratedAtUnix < out[j].GeneratedAtUnix
		}
		return filepath.Base(out[i].File) < filepath.Base(out[j].File)
	})
	return out, nil
}

// BenchSeries pivots the history into per-benchmark trajectories, keyed by
// benchmark name, each in history order.
type benchPoint struct {
	File      *BenchFile
	Benchmark benchmark
}

// seriesByName pivots history (already chronological) into per-benchmark
// trajectories. Names are the map's sorted-key iteration responsibility of
// the caller.
func seriesByName(history []*BenchFile) map[string][]benchPoint {
	out := make(map[string][]benchPoint)
	for _, bf := range history {
		for _, bm := range bf.Benchmarks {
			out[bm.Name] = append(out[bm.Name], benchPoint{File: bf, Benchmark: bm})
		}
	}
	return out
}

// sortedNames returns the series keys in sorted order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
