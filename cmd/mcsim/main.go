// Command mcsim runs an end-to-end multicast simulation for a chosen
// scheme and loss model and prints measured metrics next to the analytic
// predictions of the dependence-graph framework.
//
// Usage:
//
//	mcsim -scheme emss -n 100 -p 0.2 -receivers 500
//	mcsim -scheme tesla -n 100 -p 0.5 -receivers 200 -mu 200ms -sigma 80ms
//	mcsim -scheme augchain -n 101 -burst 5 -receivers 500
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"mcauth/internal/catalog"
	"mcauth/internal/crypto"
	"mcauth/internal/delay"
	"mcauth/internal/diagnose"
	"mcauth/internal/loss"
	"mcauth/internal/netsim"
	"mcauth/internal/obs"
)

type options struct {
	scheme    string
	n         int
	p         float64
	burst     int
	receivers int
	mu        time.Duration
	sigma     time.Duration
	interval  time.Duration
	seed      uint64
	workers   int
	m, d      int
	a, b      int
	lag       int
	latejoin  int

	chaos      bool
	chaosRate  float64
	chaosSeeds int

	overlay    bool
	depth      int
	fanout     int
	edgeP      float64
	lossyEdges int
	relays     bool
	repairRTT  time.Duration
	summary    string

	trace      string
	metrics    string
	report     string
	cpuprofile string
	memprofile string
	pprofAddr  string
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mcsim:", err)
		os.Exit(1)
	}
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("mcsim", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.scheme, "scheme", "emss", "scheme: "+strings.Join(catalog.IDs(), "|"))
	fs.IntVar(&o.n, "n", 100, "block size (payloads per block)")
	fs.Float64Var(&o.p, "p", 0.1, "i.i.d. loss probability")
	fs.IntVar(&o.burst, "burst", 0, "mean burst length; >1 switches to Gilbert-Elliott loss at rate p")
	fs.IntVar(&o.receivers, "receivers", 200, "number of receivers")
	fs.DurationVar(&o.mu, "mu", 20*time.Millisecond, "mean end-to-end delay")
	fs.DurationVar(&o.sigma, "sigma", 5*time.Millisecond, "delay standard deviation")
	fs.DurationVar(&o.interval, "interval", 10*time.Millisecond, "packet send interval")
	fs.Uint64Var(&o.seed, "seed", 1, "simulation seed")
	fs.IntVar(&o.workers, "workers", 0, "receiver simulation worker pool size (0 = GOMAXPROCS); results are identical for any setting")
	fs.IntVar(&o.m, "m", 2, "EMSS m")
	fs.IntVar(&o.d, "d", 1, "EMSS d")
	fs.IntVar(&o.a, "a", 3, "augmented chain a")
	fs.IntVar(&o.b, "b", 3, "augmented chain b")
	fs.IntVar(&o.lag, "lag", 4, "TESLA disclosure lag (intervals)")
	fs.IntVar(&o.latejoin, "latejoin", 0, "number of receivers joining mid-block")
	fs.BoolVar(&o.overlay, "overlay", false, "deliver through a relay fan-out tree (see -depth/-fanout/-edgep/-relays) instead of the flat topology")
	fs.IntVar(&o.depth, "depth", 2, "overlay tree depth (levels of relays below the source)")
	fs.IntVar(&o.fanout, "fanout", 4, "overlay tree fanout per node")
	fs.Float64Var(&o.edgeP, "edgep", 0, "i.i.d. loss rate on the lossy mid-tree edges (0 = all edges lossless)")
	fs.IntVar(&o.lossyEdges, "lossyedges", 1, "how many first-level tree edges lose packets at -edgep")
	fs.BoolVar(&o.relays, "relays", false, "relays serve NACK signature repairs from local retention")
	fs.DurationVar(&o.repairRTT, "repair-rtt", 40*time.Millisecond, "one NACK repair round trip to the serving relay")
	fs.StringVar(&o.summary, "summary", "", "write a deterministic JSON summary of the overlay run to this file (byte-identical at any -workers)")
	fs.BoolVar(&o.chaos, "chaos", false, "run the fault-injection soak: every scheme x every fault preset x -chaosseeds seeds")
	fs.Float64Var(&o.chaosRate, "chaosrate", 0.02, "per-packet fault injection rate for -chaos")
	fs.IntVar(&o.chaosSeeds, "chaosseeds", 3, "seeds per scheme/preset cell for -chaos")
	fs.StringVar(&o.trace, "trace", "", "write a JSONL packet-lifecycle trace to this file; each receiver's events are the same at any -workers, the file as a whole only at -workers 1 (receivers interleave otherwise)")
	fs.StringVar(&o.metrics, "metrics", "", "write end-of-run metrics: '-' for a text table on stdout, else JSON to this file")
	fs.StringVar(&o.report, "report", "", "write a root-cause diagnosis report: JSON to this file, markdown alongside it at <file>.md")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to this file at exit")
	fs.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	return o, nil
}

// spec is the catalogue row the scheme flags select.
func (o options) spec() catalog.Spec {
	return catalog.Spec{
		ID: o.scheme, N: o.n, M: o.m, D: o.d, A: o.a, B: o.b,
		Lag: o.lag, Interval: o.interval, Seed: []byte("mcsim"),
	}
}

// buildEntry builds the selected scheme and its analytic q_min under the
// -p loss rate and -mu/-sigma delay, printed with the evaluator that gave it.
func buildEntry(o options) (catalog.Entry, string, error) {
	entry, err := catalog.Build(o.spec(), crypto.NewSignerFromString("mcsim-sender"))
	if err != nil {
		return catalog.Entry{}, "", err
	}
	qmin, by, err := entry.QMin(o.p, o.mu, o.sigma)
	return entry, fmt.Sprintf("%.4f (%s)", qmin, by), err
}

// buildLossModel maps -p/-burst to the last-hop loss process.
func buildLossModel(o options) (loss.Model, error) {
	if o.burst > 1 {
		return loss.NewBursty(o.p, float64(o.burst))
	}
	return loss.NewBernoulli(o.p)
}

// setupObservability opens every requested output up front so an
// unwritable path fails the run immediately with a clear error instead of
// silently discarding the data after the simulation has burned CPU.
// It returns the tracer and registry to wire into the run (either may be
// nil) plus a finish func that writes/flushes the outputs. The tracer
// writes -trace and keeps the run in memory for -report.
func setupObservability(o options) (tracer *obs.SpanSink, reg *obs.Registry, finish func() error, err error) {
	var metricsFile *os.File

	keep := 0
	if o.report != "" {
		keep = obs.KeepAll
	}
	if tracer, err = obs.OpenTrace(o.trace, keep); err != nil {
		return nil, nil, nil, err
	}
	if o.metrics != "" || o.pprofAddr != "" {
		// The pprof listener also serves /metrics and /statusz, so a live
		// listener always gets a registry even without -metrics.
		reg = obs.NewRegistry()
		if o.metrics != "" && o.metrics != "-" {
			metricsFile, err = os.Create(o.metrics)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("metrics output unwritable: %w", err)
			}
		}
		crypto.Instrument(reg)
	}
	stopProfiles, err := obs.StartProfiles(o.cpuprofile, o.memprofile)
	if err != nil {
		return nil, nil, nil, err
	}
	var exposer *obs.Exposer
	if o.pprofAddr != "" {
		ln, err := net.Listen("tcp", o.pprofAddr)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("pprof listen %s: %w", o.pprofAddr, err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		exposer = obs.NewExposer(reg, obs.DefaultExposeInterval)
		exposer.SetStatus(func(w io.Writer) {
			fmt.Fprintf(w, "mcsim -scheme %s -n %d -p %g -receivers %d -seed %d\n",
				o.scheme, o.n, o.p, o.receivers, o.seed)
		})
		exposer.Register(mux)
		fmt.Fprintf(os.Stderr, "pprof: serving on http://%s/debug/pprof/ (+/metrics, /statusz)\n", ln.Addr())
		go func() {
			_ = http.Serve(ln, mux)
		}()
	}

	finish = func() error {
		crypto.Uninstrument()
		if exposer != nil {
			exposer.Refresh()
			exposer.Close()
		}
		if err := tracer.Close(); err != nil {
			return err
		}
		if metricsFile != nil {
			if err := reg.Snapshot().WriteJSON(metricsFile); err != nil {
				metricsFile.Close()
				return fmt.Errorf("metrics output: %w", err)
			}
			if err := metricsFile.Close(); err != nil {
				return fmt.Errorf("metrics output: %w", err)
			}
		}
		return stopProfiles()
	}
	return tracer, reg, finish, nil
}

func run(args []string) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	if o.chaos {
		return runChaos(o)
	}
	if o.summary != "" && !o.overlay {
		return fmt.Errorf("-summary needs -overlay")
	}
	if o.overlay && o.latejoin > 0 {
		return fmt.Errorf("-overlay does not compose with -latejoin")
	}
	tracer, reg, finishObs, err := setupObservability(o)
	if err != nil {
		return err
	}
	var reportJSON, reportMD *os.File
	if o.report != "" {
		reportJSON, err = os.Create(o.report)
		if err != nil {
			return fmt.Errorf("report output unwritable: %w", err)
		}
		reportMD, err = os.Create(o.report + ".md")
		if err != nil {
			return fmt.Errorf("report output unwritable: %w", err)
		}
	}
	entry, analytic, err := buildEntry(o)
	if err != nil {
		return err
	}
	simulate := runFlat
	if o.overlay {
		simulate = runOverlay
	}
	if err := simulate(o, entry, analytic, tracer, reg); err != nil {
		return err
	}
	if o.metrics == "-" {
		fmt.Println()
		if err := reg.Snapshot().WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if reportJSON != nil {
		if err := writeReport(entry, tracer.Snapshot(), reportJSON, reportMD); err != nil {
			return err
		}
	}
	return finishObs()
}

// runFlat simulates the flat topology — every receiver one lossy hop from
// the source — and prints its table.
func runFlat(o options, entry catalog.Entry, analytic string, tracer *obs.SpanSink, reg *obs.Registry) error {
	s := entry.Scheme

	lossModel, err := buildLossModel(o)
	if err != nil {
		return err
	}
	delayModel, err := delay.NewGaussian(o.mu, o.sigma)
	if err != nil {
		return err
	}

	payloads := make([][]byte, s.BlockSize())
	for i := range payloads {
		payloads[i] = fmt.Appendf(nil, "payload-%06d", i)
	}
	// The signature / bootstrap packet is delivered reliably, matching
	// the paper's standing assumption.
	simCfg := netsim.Config{
		Receivers:       o.receivers,
		Loss:            lossModel,
		Delay:           delayModel,
		SendInterval:    entry.SendInterval,
		Start:           entry.Start,
		Seed:            o.seed,
		ReliableIndices: entry.Signature,
		LateJoiners:     o.latejoin,
		Workers:         o.workers,
		Tracer:          tracer,
		Metrics:         reg,
	}
	res, err := netsim.Run(s, simCfg, 1, payloads)
	if err != nil {
		return err
	}

	measured := res.MinAuthRatio(entry.Data)
	var delivered, lost, authed, rejected, unsafe int
	for _, rep := range res.PerReceiver {
		delivered += rep.Delivered
		lost += rep.Lost
		authed += rep.Stats.Authenticated
		rejected += rep.Stats.Rejected
		unsafe += rep.Stats.Unsafe
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "scheme\t%s\n", s.Name())
	fmt.Fprintf(w, "loss model\t%s\n", lossModel.Name())
	fmt.Fprintf(w, "delay model\t%s\n", delayModel.Name())
	fmt.Fprintf(w, "receivers\t%d\n", o.receivers)
	fmt.Fprintf(w, "wire packets\t%d\n", res.WireCount)
	fmt.Fprintf(w, "delivered / lost\t%d / %d\n", delivered, lost)
	fmt.Fprintf(w, "authenticated\t%d\n", authed)
	fmt.Fprintf(w, "rejected (tampered)\t%d\n", rejected)
	fmt.Fprintf(w, "unsafe (TESLA late)\t%d\n", unsafe)
	fmt.Fprintf(w, "analytic q_min\t%s\n", analytic)
	fmt.Fprintf(w, "measured q_min\t%.4f\n", measured)
	if timeToAuth := res.TimeToAuth; timeToAuth.Count > 0 {
		fmt.Fprintf(w, "auth latency mean/max\t%v / %v\n",
			time.Duration(timeToAuth.Mean()), time.Duration(timeToAuth.MaxSeen))
		fmt.Fprintf(w, "time-to-auth p50/p90/p99\t%v / %v / %v\n",
			time.Duration(timeToAuth.Quantile(0.50)),
			time.Duration(timeToAuth.Quantile(0.90)),
			time.Duration(timeToAuth.Quantile(0.99)))
	}
	return w.Flush()
}

// writeReport joins the in-memory trace with the scheme's dependence graph
// and writes the root-cause report as JSON and markdown, plus a short text
// rendering on stdout.
func writeReport(entry catalog.Entry, spans []obs.Span, jsonOut, mdOut *os.File) error {
	opts, err := entry.DiagnoseOptions()
	if err != nil {
		return err
	}
	rep, err := diagnose.BuildReport(spans, 0, opts)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(jsonOut); err != nil {
		jsonOut.Close()
		return fmt.Errorf("report output: %w", err)
	}
	if err := jsonOut.Close(); err != nil {
		return fmt.Errorf("report output: %w", err)
	}
	if err := rep.WriteMarkdown(mdOut); err != nil {
		mdOut.Close()
		return fmt.Errorf("report output: %w", err)
	}
	if err := mdOut.Close(); err != nil {
		return fmt.Errorf("report output: %w", err)
	}
	fmt.Println()
	return rep.WriteText(os.Stdout)
}
