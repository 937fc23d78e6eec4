// Command benchmark is the repository's benchmark: five workloads that
// follow a message from the publisher to a verifying receiver, replay a
// lossy wire into the verifiers, or regenerate the paper's figures, with
// a per-layer cost ledger from a separate traced run. BENCHMARK.json at
// the repository root fixes every workload and metric name, unit,
// direction and bound; README.md in this directory defines them.
//
//	go run ./benchmark -workload serve_paced -seed 1 -seconds 15 -trace 0
//	go run ./benchmark -workload all -seed 1 >> a.jsonl
//	go run ./benchmark -compare a.jsonl b.jsonl
//
// The last line on standard output is the result as one JSON object; a
// table for people goes to standard error. The exit code is non-zero when
// any output was wrong or the run was not a valid measurement.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"
)

// spec is BENCHMARK.json.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory (the repository
// root, where the benchmark is run from) or its parent (where go test runs
// this package).
func loadSpec() (*spec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var sp spec
		if err := json.Unmarshal(raw, &sp); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &sp, nil
	}
	return nil, firstErr
}

// result is what one run prints: the contract of BENCHMARK.json's driver.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is a result labelled with the run that made it: the line format
// of -workload all, and what -compare reads.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// params is everything a workload derives its inputs from.
type params struct {
	seed uint64
	// tiny shrinks every workload to a fraction of a second for the smoke
	// test; the numbers it produces mean nothing.
	tiny bool
}

// workload is one entry of BENCHMARK.json's workloads.
type workload struct {
	name string
	// headline is the end-to-end metric trace.overhead_share compares
	// between the untraced and the traced measurement.
	headline string
	// spanEvery is how many ids share one logged span (0: every id is
	// logged); the span totals always cover every span.
	spanEvery uint64
	// setup builds the inputs and the system under test; its duration is
	// setup_s. A non-nil tracer makes the instance record spans.
	setup func(p params, tr *tracer) (instance, error)
	// rungs runs the workload's isolated ledger loops within budget and
	// adds their metrics, and the ledger sums, to the traced measurement.
	rungs func(p params, budget time.Duration, traced *measurement)
}

// instance is a set-up workload; measure consumes it.
type instance interface {
	measure(dur time.Duration) (*measurement, error)
	close()
}

type measurement struct {
	attempted, failed int64
	// invalid, when set, says why the run is not a measurement at all (an
	// overloaded load generator, dropped deliveries).
	invalid string
	e2e     map[string]float64
	layer   map[string]float64
}

func newMeasurement() *measurement {
	return &measurement{e2e: map[string]float64{}, layer: map[string]float64{}}
}

var workloads = []workload{
	{name: "serve_paced", headline: "latency_p50_ms", setup: servePaced.setup},
	{name: "serve_saturate", headline: "throughput_per_s", spanEvery: 8, setup: serveSaturate.setup, rungs: receiverRungs},
	{name: "send_saturate", headline: "throughput_per_s", spanEvery: 64, setup: sendSaturate.setup, rungs: senderRungs},
	{name: "recv_lossy", headline: "throughput_per_s", setup: setupLossy},
	{name: "analyze_sweep", headline: "latency_p50_ms", setup: setupSweep, rungs: sweepRungs},
}

// Shares of a traced run's seconds: an untraced reference for
// trace.overhead_share, the traced measurement, and the ledger rungs.
const (
	refShare    = 0.3
	tracedShare = 0.5
	rungShare   = 0.2
)

// maxSetups and setupBudget bound how often set-up is repeated so that
// setup_s is a median: cheap set-ups run 25 times, a long one once.
const (
	maxSetups   = 25
	setupBudget = time.Second
)

// maxAttempts bounds how often an invalid measurement is repeated.
const maxAttempts = 3

// runner runs one workload once, untraced or traced.
type runner struct {
	w      workload
	p      params
	sp     *spec
	spans  string // file the traced spans are written to; empty: none
	setups []float64
}

// timedSetup times one set-up, from a collected heap so that the garbage
// of the set-up before does not land in it.
func (r *runner) timedSetup(tr *tracer) (instance, error) {
	runtime.GC()
	t0 := time.Now()
	inst, err := r.w.setup(r.p, tr)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", r.w.name, err)
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	return inst, nil
}

// measureOnce sets the workload up, several times when that is cheap, and
// measures the last instance.
func (r *runner) measureOnce(dur time.Duration, tr *tracer) (*measurement, error) {
	begin := time.Now()
	for {
		inst, err := r.timedSetup(tr)
		if err != nil {
			return nil, err
		}
		if len(r.setups) >= maxSetups || time.Since(begin) >= setupBudget {
			m, err := inst.measure(dur)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", r.w.name, err)
			}
			return m, nil
		}
		inst.close()
	}
}

// measure measures until a measurement is valid, at most maxAttempts times:
// a stall of the machine spoils one measurement, an overloaded machine
// spoils them all. Wrong outputs are never measured again. It returns the
// tracer of the measurement it returns, nil when not traced.
func (r *runner) measure(dur time.Duration, traced bool) (*measurement, *tracer, error) {
	for attempt := 1; ; attempt++ {
		var tr *tracer
		if traced {
			tr = newTracer(r.w.spanEvery)
		}
		m, err := r.measureOnce(dur, tr)
		if err != nil || m.invalid == "" || attempt == maxAttempts {
			return m, tr, err
		}
		fmt.Fprintf(os.Stderr, "%s: measurement %d discarded: %s\n", r.w.name, attempt, m.invalid)
	}
}

func (r *runner) run(seconds float64, traced bool) (result, error) {
	dur := time.Duration(seconds * float64(time.Second))
	if !traced {
		m, _, err := r.measure(dur, false)
		if err != nil {
			return result{}, err
		}
		m.e2e["setup_s"] = median(r.setups)
		return r.result(r.sp.EndToEnd, m.e2e, m)
	}
	ref, _, err := r.measure(time.Duration(refShare*float64(dur)), false)
	if err != nil {
		return result{}, err
	}
	m, tr, err := r.measure(time.Duration(tracedShare*float64(dur)), true)
	if err != nil {
		return result{}, err
	}
	m.layer["trace.overhead_share"] = r.worsening(ref.e2e[r.w.headline], m.e2e[r.w.headline])
	if r.w.rungs != nil {
		r.w.rungs(r.p, time.Duration(rungShare*float64(dur)), m)
	}
	if r.spans != "" {
		if err := tr.writeJSONL(r.spans); err != nil {
			return result{}, err
		}
	}
	m.attempted += ref.attempted
	m.failed += ref.failed
	if m.invalid == "" {
		m.invalid = ref.invalid
	}
	return r.result(r.sp.PerLayer, m.layer, m)
}

// worsening is how much worse traced is than ref, as a share of ref, in
// the headline metric's own direction.
func (r *runner) worsening(ref, traced float64) float64 {
	for _, ms := range r.sp.EndToEnd {
		if ms.Name == r.w.headline && ms.Better == "higher" {
			return ratio(ref-traced, ref)
		}
	}
	return ratio(traced-ref, ref)
}

// result reports exactly the metrics want lists. A per-layer metric the
// workload does not exercise reads 0; a metric the harness produced that
// BENCHMARK.json does not list is a harness bug.
func (r *runner) result(want []metricSpec, got map[string]float64, m *measurement) (result, error) {
	res := result{
		Correct:   m.failed == 0 && m.invalid == "",
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   make(map[string]metricVal, len(want)),
	}
	for _, ms := range want {
		v := got[ms.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("%s: metric %s is %v", r.w.name, ms.Name, v)
		}
		res.Metrics[ms.Name] = metricVal{Value: v, Unit: ms.Unit}
		delete(got, ms.Name)
	}
	for name := range got {
		return res, fmt.Errorf("%s: metric %s is not in BENCHMARK.json", r.w.name, name)
	}
	if m.invalid != "" {
		fmt.Fprintf(os.Stderr, "%s: invalid run: %s\n", r.w.name, m.invalid)
	}
	return res, nil
}

func printTable(name string, traced bool, res result) {
	w := tabwriter.NewWriter(os.Stderr, 2, 4, 2, ' ', 0)
	mode := "end to end"
	if traced {
		mode = "per layer (traced)"
	}
	fmt.Fprintf(w, "%s\t%s\tcorrect %v, %d attempted, %d failed\n", name, mode, res.Correct, res.Attempted, res.Failed)
	for _, n := range sortedNames(res.Metrics) {
		fmt.Fprintf(w, "  %s\t%.6g\t%s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	w.Flush()
}

// sortedNames lists a metric map's names in order.
func sortedNames(m map[string]metricVal) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload to run, or all: every workload in turn, one labelled JSON line each")
		seed    = flag.Uint64("seed", 1, "seed every input is derived from")
		seconds = flag.Float64("seconds", 0, "seconds one run measures (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics instead of the end-to-end ones")
		spans   = flag.String("spans", "", "with -trace 1: write the recorded spans to this file as JSON lines")
		compare = flag.Bool("compare", false, "compare two files of labelled JSON lines: -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	if *compare {
		if flag.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		return runCompare(sp, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	todo := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		todo = []workload{w}
	}
	enc := json.NewEncoder(os.Stdout)
	wrong := 0
	for _, w := range todo {
		r := &runner{w: w, p: params{seed: *seed}, sp: sp, spans: *spans}
		res, err := r.run(*seconds, *trace == 1)
		if err != nil {
			return err
		}
		printTable(w.name, *trace == 1, res)
		if *name == "all" {
			err = enc.Encode(record{w.name, *seed, *trace, res})
		} else {
			err = enc.Encode(res)
		}
		if err != nil {
			return err
		}
		if !res.Correct {
			wrong++
		}
	}
	if wrong > 0 {
		return fmt.Errorf("%d runs incorrect or invalid", wrong)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
