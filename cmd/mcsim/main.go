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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"mcauth/internal/catalog"
	"mcauth/internal/cli"
	"mcauth/internal/crypto"
	"mcauth/internal/delay"
	"mcauth/internal/diagnose"
	"mcauth/internal/loss"
	"mcauth/internal/netsim"
	"mcauth/internal/obs"
	"mcauth/internal/scenario"
)

type options struct {
	scheme    *catalog.Spec
	p         float64
	burst     int
	receivers int
	mu        time.Duration
	sigma     time.Duration
	interval  time.Duration
	seed      uint64
	workers   int
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

	out    cli.Config
	report string
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
	o.scheme = cli.SchemeFlags(fs, "emss", 100, catalog.IDs())
	fs.Float64Var(&o.p, "p", 0.1, "i.i.d. loss probability")
	fs.IntVar(&o.burst, "burst", 0, "mean burst length; >1 switches to Gilbert-Elliott loss at rate p")
	fs.IntVar(&o.receivers, "receivers", 200, "number of receivers")
	fs.DurationVar(&o.mu, "mu", 20*time.Millisecond, "mean end-to-end delay")
	fs.DurationVar(&o.sigma, "sigma", 5*time.Millisecond, "delay standard deviation")
	fs.DurationVar(&o.interval, "interval", 10*time.Millisecond, "packet send interval")
	fs.Uint64Var(&o.seed, "seed", 1, "simulation seed")
	fs.IntVar(&o.workers, "workers", 0, "receiver simulation worker pool size (0 = GOMAXPROCS); results are identical for any setting")
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
	o.out.Flags(fs, cli.Help{
		Trace:    "write a JSONL packet-lifecycle trace to this file; each receiver's events are the same at any -workers, the file as a whole only at -workers 1 (receivers interleave otherwise)",
		Metrics:  "write end-of-run metrics",
		Pprof:    "serve net/http/pprof on this address (e.g. :6060)",
		Profiles: true,
	})
	fs.StringVar(&o.report, "report", "", "write a root-cause diagnosis report: JSON to this file, markdown alongside it at <file>.md")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	return o, nil
}

// spec is the catalogue row the scheme flags select.
func (o options) spec() catalog.Spec {
	s := *o.scheme
	s.Interval, s.Seed = o.interval, []byte("mcsim")
	return s
}

// loss is the -p/-burst last-hop loss.
func (o options) loss() loss.Spec { return loss.Spec{P: o.p, Burst: float64(o.burst)} }

// buildEntry builds the selected scheme and its analytic q_min under the
// -p/-burst loss and -mu/-sigma delay, printed with the evaluator that gave
// it: the run's own channel, with the signature packet forced as the run
// delivers it. TESLA's closed form takes i.i.d. loss only, so under -burst
// its label says the value is not this channel's; an overlay's label says
// the loss it models is the last hop's alone.
func buildEntry(o options) (catalog.Entry, string, error) {
	entry, err := catalog.Build(o.spec(), crypto.NewSignerFromString("mcsim-sender"))
	if err != nil {
		return catalog.Entry{}, "", err
	}
	qmin, by, err := entry.QMin(o.loss(), o.mu, o.sigma)
	if errors.Is(err, catalog.ErrIIDOnly) {
		qmin, by, err = entry.QMin(loss.Spec{P: o.p}, o.mu, o.sigma)
		by = fmt.Sprintf("%s, i.i.d. at p = %g; not this channel", by, o.p)
	}
	switch {
	case o.overlay && o.loss().Burst > 1:
		by += ", last hop"
	case o.overlay:
		by += ", i.i.d. last hop"
	}
	return entry, fmt.Sprintf("%.4f (%s)", qmin, by), err
}

// simConfig is the run both topologies share: the -p/-burst last-hop
// loss, the -mu/-sigma delay, and the sender's schedule, with the
// signature / bootstrap packet delivered reliably (scenario.Config).
func simConfig(o options, entry catalog.Entry, out *cli.Outputs) (netsim.Config, error) {
	delayModel, err := delay.NewGaussian(o.mu, o.sigma)
	if err != nil {
		return netsim.Config{}, err
	}
	cfg, err := scenario.Config(entry, o.receivers, o.loss(), delayModel, o.seed)
	cfg.LateJoiners, cfg.Workers = o.latejoin, o.workers
	cfg.Tracer, cfg.Metrics = out.Tracer, out.Registry
	return cfg, err
}

// payloads is the block every mcsim mode sends: n numbered messages.
func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = fmt.Appendf(nil, "payload-%06d", i)
	}
	return out
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
	if o.report != "" {
		o.out.Keep = obs.KeepAll // the report is built from the whole run
	}
	o.out.Status = func(w io.Writer) {
		fmt.Fprintf(w, "mcsim -scheme %s -n %d -p %g -receivers %d -seed %d\n",
			o.scheme.ID, o.scheme.N, o.p, o.receivers, o.seed)
	}
	out, err := cli.Open(o.out)
	if err != nil {
		return err
	}
	defer out.Close() // a failed run still finishes its outputs
	if o.report != "" {
		// Probe the report files now, so an unwritable path fails before
		// the run; writeReport fills them at the end.
		for _, path := range []string{o.report, o.report + ".md"} {
			if err := cli.WriteFile(path, func(io.Writer) error { return nil }); err != nil {
				return fmt.Errorf("report output unwritable: %w", err)
			}
		}
	}
	entry, analytic, err := buildEntry(o)
	if err != nil {
		return err
	}
	cfg, err := simConfig(o, entry, out)
	if err != nil {
		return err
	}
	simulate := runFlat
	if o.overlay {
		simulate = runOverlay
	}
	if err := simulate(o, entry, analytic, cfg); err != nil {
		return err
	}
	// Closing prints the -metrics - table, which precedes the report.
	if err := out.Close(); err != nil {
		return err
	}
	if o.report == "" {
		return nil
	}
	return writeReport(entry, out.Tracer.Snapshot(), o.report)
}

// runFlat simulates the flat topology — every receiver one lossy hop from
// the source — and prints its table.
func runFlat(o options, entry catalog.Entry, analytic string, cfg netsim.Config) error {
	s := entry.Scheme
	res, err := netsim.Run(s, cfg, 1, payloads(s.BlockSize()))
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
	fmt.Fprintf(w, "loss model\t%s\n", cfg.Loss.Name())
	fmt.Fprintf(w, "delay model\t%s\n", cfg.Delay.Name())
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
// and writes the root-cause report as JSON to path and markdown to
// path.md, plus a short text rendering on stdout.
func writeReport(entry catalog.Entry, spans []obs.Span, path string) error {
	opts, err := entry.DiagnoseOptions()
	if err != nil {
		return err
	}
	rep, err := diagnose.BuildReport(spans, 0, opts)
	if err != nil {
		return err
	}
	if err := cli.WriteFile(path, rep.WriteJSON); err != nil {
		return fmt.Errorf("report output: %w", err)
	}
	if err := cli.WriteFile(path+".md", rep.WriteMarkdown); err != nil {
		return fmt.Errorf("report output: %w", err)
	}
	fmt.Println()
	return rep.WriteText(os.Stdout)
}
