// Package experiments regenerates every figure of the paper's evaluation
// (Figures 3-10) plus this repository's extension experiments. Each
// experiment prints the figure's data series as an aligned text table; the
// underlying series functions are exported for tests and for the benchmark
// harness.
//
// Absolute values depend on parameters the paper leaves implicit (noted
// per experiment); the claims being reproduced are the qualitative shapes
// — who wins, where the curves flatten, what the tradeoffs cost.
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"text/tabwriter"

	"mcauth/internal/obs"
	"mcauth/internal/parallel"
)

// Workers bounds the worker pool used for sweep-point evaluation and
// RunAll; <= 0 (the default) selects GOMAXPROCS workers. Because
// every fan-out collects results in input order, the rendered output is
// byte-identical for any setting. Set it before running experiments (the
// mcfig/mcsim -workers flag does); it is not synchronized with running
// experiments.
var Workers int

// Tracer, when non-nil, is threaded into every netsim run an experiment
// performs, so `mcfig -trace` captures the full packet lifecycle of a
// figure regeneration. Like Workers, set it before running experiments;
// it is not synchronized with running experiments. Emission order across
// sweep points is non-deterministic — downstream consumers must treat
// the stream as an unordered bag of records (the diagnose package already
// does).
var Tracer *obs.SpanSink

// Metrics, when non-nil, is threaded into every netsim run an experiment
// performs, so `mcfig -metrics` aggregates netsim.* counters across a
// whole figure sweep. Same caveats as Tracer.
var Metrics *obs.Registry

// Experiment is one reproducible figure or extension study.
type Experiment struct {
	// ID is the handle used by cmd/mcfig (e.g. "fig8").
	ID string
	// Title summarizes what is being reproduced.
	Title string
	// Expectation states the paper's claim (the shape to look for).
	Expectation string
	// Run computes the series and renders them to w.
	Run func(w io.Writer) error
}

// All returns every registered experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		fig3Experiment(),
		fig4Experiment(),
		fig5Experiment(),
		fig6Experiment(),
		fig7Experiment(),
		fig8Experiment(),
		fig9Experiment(),
		fig10Experiment(),
		boundsExperiment(),
		burstExperiment(),
		lateJoinExperiment(),
		sigLossExperiment(),
		constructExperiment(),
		tradeoffExperiment(),
		markovGapExperiment(),
	}
}

// RunAll renders every experiment in presentation order, separated by
// blank lines. Independent experiments run concurrently on the worker
// pool, each into its own buffer, so the concatenated output is
// byte-identical to a sequential run.
func RunAll(w io.Writer) error {
	bufs, err := parallel.Map(Workers, All(), func(_ int, e Experiment) ([]byte, error) {
		var buf bytes.Buffer
		if err := e.Run(&buf); err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		buf.WriteString("\n")
		return buf.Bytes(), nil
	})
	if err != nil {
		return err
	}
	for _, b := range bufs {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// Get looks an experiment up by ID.
func Get(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns all experiment IDs.
func IDs() []string {
	all := All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	sort.Strings(ids)
	return ids
}

// table renders rows with a header through a tabwriter.
type table struct {
	w  *tabwriter.Writer
	ec errCollector
}

type errCollector struct{ err error }

func (e *errCollector) note(err error) {
	if e.err == nil && err != nil {
		e.err = err
	}
}

func newTable(w io.Writer, header ...string) *table {
	t := &table{w: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
	t.row(header...)
	return t
}

func (t *table) row(cells ...string) {
	for i, c := range cells {
		if i > 0 {
			_, err := io.WriteString(t.w, "\t")
			t.ec.note(err)
		}
		_, err := io.WriteString(t.w, c)
		t.ec.note(err)
	}
	_, err := io.WriteString(t.w, "\n")
	t.ec.note(err)
}

func (t *table) flush() error {
	t.ec.note(t.w.Flush())
	return t.ec.err
}

func f3(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

func f1(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }

func itoa(v int) string { return strconv.Itoa(v) }

func banner(w io.Writer, e Experiment) error {
	_, err := fmt.Fprintf(w, "== %s: %s ==\nExpected shape: %s\n\n", e.ID, e.Title, e.Expectation)
	return err
}
