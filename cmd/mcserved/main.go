// Command mcserved is the serving daemon: it multiplexes many
// authenticated streams through internal/server — each stream's blocks
// built on the goroutine that publishes to it, their roots signed in
// batches — and feeds receivers over the transport mux framing.
//
// Three modes:
//
//	mcserved -demo -streams 64 -blocks 20
//	    self-contained: serve, receive and verify in-process, print a
//	    summary (throughput, amortization ratio, drops).
//
//	mcserved -listen :7700 -streams 64 -rate 2ms
//	    daemon: publish synthetic messages on every stream and serve any
//	    number of TCP receivers until interrupted (or -duration).
//
//	mcserved -connect host:7700
//	    receiver: connect, demultiplex, verify, and print totals on EOF
//	    or interrupt. The -key and scheme flags must match the daemon's.
//
// The demo and daemon sign with a key derived from -key; receivers derive
// the same verification key, so a quickstart needs no key exchange.
//
// A fourth mode places the daemon behind a fan-out tier:
//
//	mcserved -relay -connect host:7700 -listen :7701
//	    relay: subscribe upstream like a receiver, retain -repair blocks
//	    per stream, and re-serve the feed downstream: live forwarding, and
//	    resume-hello catch-up from the relay's local store, one hop from
//	    the edge. Relays hold no keys and verify nothing; a
//	    tampering relay only produces packets receivers reject. Relays
//	    chain: a relay's -connect may point at another relay.
//
// A fifth mode exercises the resilience machinery end to end:
//
//	mcserved -chaos -cycles 5 -conn-reset 0.02 -conn-stall 0.01
//	    chaos self-test: run daemon + reconnecting receiver in-process,
//	    kill and restart the server every -kill-after with connection
//	    resets, torn writes and stalled reads injected, then assert zero
//	    forged authentications, no forked blocks, and measured session
//	    resume.
//
// Daemons are crash-recoverable when given -checkpoint FILE: block IDs are
// write-ahead reserved there, so a killed and restarted daemon never
// reuses a block identity, and SIGTERM flushes a clean checkpoint.
// Receivers reconnect with capped exponential backoff (-reconnect,
// -reconnect-backoff) and resume their session via a hello carrying
// per-stream replay cursors, answered from the server's per-stream repair
// retention (-repair).
//
// The roles themselves are internal/serve; this package is their flags,
// observability endpoints, signals and summaries.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"mcauth/internal/catalog"
	"mcauth/internal/cli"
	"mcauth/internal/crypto"
	"mcauth/internal/obs"
	"mcauth/internal/scheme"
	"mcauth/internal/serve"
)

type options struct {
	demo    bool
	listen  string
	connect string
	chaos   bool
	relay   bool

	schemeID string
	n        int
	duration time.Duration

	serve.Config
	chaosCfg serve.ChaosConfig
	telCfg   serve.TelemetryConfig

	out cli.Config
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mcserved:", err)
		os.Exit(1)
	}
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("mcserved", flag.ContinueOnError)
	var o options
	fs.BoolVar(&o.demo, "demo", false, "run the in-process demo (serve + receive + verify)")
	fs.StringVar(&o.listen, "listen", "", "serve receivers on this TCP address (e.g. :7700)")
	fs.StringVar(&o.connect, "connect", "", "act as a receiver: connect to a daemon and verify its streams")
	fs.BoolVar(&o.chaos, "chaos", false, "run the chaos self-test: kill/restart the daemon across -cycles with conn faults injected, assert recovery invariants")
	fs.BoolVar(&o.relay, "relay", false, "run as a fan-out relay: subscribe to -connect, retain -repair blocks per stream, and re-serve the feed (live + resume catch-up) on -listen")
	fs.IntVar(&o.Streams, "streams", 64, "number of concurrent authenticated streams")
	fs.StringVar(&o.schemeID, "scheme", "mixed", "per-stream scheme: "+servedSchemes())
	fs.IntVar(&o.n, "n", 8, "block size (payloads per block)")
	fs.IntVar(&o.Blocks, "blocks", 20, "blocks to publish per stream (demo mode)")
	fs.DurationVar(&o.Rate, "rate", 0, "inter-message gap per stream (0 = as fast as possible)")
	fs.DurationVar(&o.duration, "duration", 0, "daemon lifetime (0 = until interrupt)")
	fs.IntVar(&o.Batch, "batch", 64, "ceiling on block roots per signature: a batch signs once min(batch, 1 + roots/s x hold) roots are pending (batch while the rate is unmeasured), or when its hold runs out (see -flush)")
	fs.DurationVar(&o.Flush, "flush", 50*time.Millisecond, "ceiling on how long a partial block or an unsigned root may wait; a batch short of its root count signs flush x min(1, roots/s x flush / batch) after its first root")
	fs.StringVar(&o.Key, "key", "mcserved-demo", "signing-key derivation string (receivers derive the matching public key)")
	fs.IntVar(&o.VerifyBatch, "verify-batch", 32, "receiver fast path: defer signature checks to a batch-verify queue holding this many pending packets, amortizing duplicate underlying checks (0 = verify synchronously)")
	fs.IntVar(&o.VerifyCache, "verify-cache", 1024, "receiver fast path: shared per-block verification cache entries — packets proven authentic once are accepted by digest on re-receipt (0 = off)")
	fs.StringVar(&o.Checkpoint, "checkpoint", "", "crash-recovery checkpoint file: block IDs are write-ahead reserved here, restarts resume past every emitted block")
	fs.IntVar(&o.Repair, "repair", 64, "blocks of per-stream packet retention for session-resume catch-up (0 disables)")
	fs.DurationVar(&o.WriteTimeout, "write-timeout", 10*time.Second, "per-packet write deadline on subscriber connections (0 = none); a stalled reader loses its conn instead of pinning the writer")
	fs.IntVar(&o.Reconnect, "reconnect", 8, "receiver: give up after this many consecutive failed dials (-1 = retry forever, 0 = single session, no reconnect)")
	fs.DurationVar(&o.ReconnectBackoff, "reconnect-backoff", 50*time.Millisecond, "receiver: initial redial backoff (doubles with jitter, capped at 1s)")
	fs.IntVar(&o.chaosCfg.Cycles, "cycles", 5, "chaos: daemon kill/restart cycles")
	fs.DurationVar(&o.chaosCfg.KillAfter, "kill-after", 300*time.Millisecond, "chaos: serving time before each kill")
	fs.Float64Var(&o.chaosCfg.ConnReset, "conn-reset", 0.01, "chaos: per-write probability a subscriber conn resets mid-frame")
	fs.Float64Var(&o.chaosCfg.ConnStall, "conn-stall", 0.005, "chaos: per-read probability the receiver stalls")
	fs.Uint64Var(&o.chaosCfg.Seed, "chaos-seed", 1, "chaos: fault-injection RNG seed")
	fs.Float64Var(&o.chaosCfg.MinAuth, "min-auth", 0.3, "chaos: minimum fraction of published messages that must authenticate")
	o.out.Flags(fs, cli.Help{
		Metrics: "write end-of-run metrics",
		Pprof:   "serve net/http/pprof (+/metrics, /statusz, /healthz, /slo) on this address",
	})
	fs.DurationVar(&o.out.MetricsInterval, "metrics-interval", 0, "with -metrics FILE: append a timestamped JSONL metrics snapshot at this interval (plus one final line) instead of a single end-of-run object")
	fs.IntVar(&o.telCfg.SpanBuf, "span-buf", 8192, "trace ring capacity: per-packet lifecycle records (push, emit, sign attach, mux write, decode, buffering, deferred park, resolve, authenticate/reject) kept for the flight recorder (0 disables tracing)")
	fs.StringVar(&o.telCfg.Flight, "flight", "", "write the flight-recorder post-mortem (JSONL) to this file on panic, SIGUSR1, chaos kill, or SLO budget exhaustion (render with mcreport -flight)")
	fs.DurationVar(&o.telCfg.SLOWindow, "slo-window", time.Minute, "per-stream SLO sliding evaluation window")
	fs.DurationVar(&o.telCfg.SLOP99, "slo-p99", 0, "per-stream SLO: p99 time-to-auth objective (0 = no latency objective)")
	fs.Float64Var(&o.telCfg.SLOMinAuth, "slo-min-auth", 0, "per-stream SLO: minimum mean authenticated fraction of verification attempts, not the worst packet's q_min (0 = off)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	modes := 0
	for _, on := range []bool{o.demo, o.listen != "", o.connect != "", o.chaos} {
		if on {
			modes++
		}
	}
	if o.relay {
		// A relay is both a subscriber and a server: it needs -connect
		// (upstream) and -listen (downstream) together.
		if o.demo || o.chaos {
			return options{}, errors.New("-relay cannot combine with -demo or -chaos")
		}
		if o.connect == "" || o.listen == "" {
			return options{}, errors.New("-relay needs both -connect (upstream feed) and -listen (downstream address)")
		}
	} else if modes != 1 {
		return options{}, errors.New("pick exactly one of -demo, -listen, -connect, -chaos (or -relay with -connect and -listen)")
	}
	if o.Streams < 1 {
		return options{}, fmt.Errorf("streams %d must be >= 1", o.Streams)
	}
	if o.Blocks < 1 {
		return options{}, fmt.Errorf("blocks %d must be >= 1", o.Blocks)
	}
	if o.Repair < 0 {
		return options{}, fmt.Errorf("repair %d must be >= 0", o.Repair)
	}
	if o.VerifyBatch < 0 {
		return options{}, fmt.Errorf("verify-batch %d must be >= 0", o.VerifyBatch)
	}
	if o.VerifyCache < 0 {
		return options{}, fmt.Errorf("verify-cache %d must be >= 0", o.VerifyCache)
	}
	if o.Reconnect < -1 {
		return options{}, fmt.Errorf("reconnect %d must be >= -1", o.Reconnect)
	}
	if o.ReconnectBackoff <= 0 {
		return options{}, fmt.Errorf("reconnect-backoff %v must be > 0", o.ReconnectBackoff)
	}
	if o.chaos {
		if o.chaosCfg.Cycles < 1 {
			return options{}, fmt.Errorf("cycles %d must be >= 1", o.chaosCfg.Cycles)
		}
		if o.chaosCfg.KillAfter <= 0 {
			return options{}, fmt.Errorf("kill-after %v must be > 0", o.chaosCfg.KillAfter)
		}
		if o.chaosCfg.ConnReset < 0 || o.chaosCfg.ConnReset > 1 || o.chaosCfg.ConnStall < 0 || o.chaosCfg.ConnStall > 1 {
			return options{}, errors.New("conn-reset and conn-stall must be in [0,1]")
		}
		if o.chaosCfg.MinAuth < 0 || o.chaosCfg.MinAuth > 1 {
			return options{}, fmt.Errorf("min-auth %v must be in [0,1]", o.chaosCfg.MinAuth)
		}
	}
	if o.out.MetricsInterval < 0 {
		return options{}, fmt.Errorf("metrics-interval %v must be >= 0", o.out.MetricsInterval)
	}
	if o.telCfg.SpanBuf < 0 {
		return options{}, fmt.Errorf("span-buf %d must be >= 0", o.telCfg.SpanBuf)
	}
	if o.telCfg.SLOWindow <= 0 {
		return options{}, fmt.Errorf("slo-window %v must be > 0", o.telCfg.SLOWindow)
	}
	if o.telCfg.SLOP99 < 0 {
		return options{}, fmt.Errorf("slo-p99 %v must be >= 0", o.telCfg.SLOP99)
	}
	if o.telCfg.SLOMinAuth < 0 || o.telCfg.SLOMinAuth > 1 {
		return options{}, fmt.Errorf("slo-min-auth %v must be in [0,1]", o.telCfg.SLOMinAuth)
	}
	if o.out.MetricsInterval > 0 && (o.out.Metrics == "" || o.out.Metrics == "-") {
		return options{}, errors.New("-metrics-interval needs -metrics FILE (the JSONL series goes to a file)")
	}
	o.Scheme = o.buildScheme
	return o, nil
}

// servedSchemes is -scheme's accepted set: every catalogue scheme but
// TESLA, plus the "mixed" rotation. The served wire carries no sender
// clock, so receivers could not check TESLA's disclosure deadline.
func servedSchemes() string {
	served := slices.DeleteFunc(catalog.IDs(), func(id string) bool { return id == "tesla" })
	return strings.Join(served, "|") + "|mixed"
}

// buildScheme constructs stream id's scheme at E_{2,1} / C_{2,2}; "mixed"
// rotates the four non-timed constructions so one daemon exercises
// deferred and synchronous signing together.
func (o options) buildScheme(id uint64, signer crypto.Signer) (scheme.Scheme, error) {
	kind := o.schemeID
	if kind == "mixed" {
		kind = []string{"emss", "rohatgi", "authtree", "signeach"}[id%4]
	}
	if kind == "tesla" {
		return nil, fmt.Errorf("scheme \"tesla\" is not served: the served wire carries no sender clock, so receivers cannot check the disclosure deadline (accepted: %s)", servedSchemes())
	}
	entry, err := catalog.Build(catalog.Spec{ID: kind, N: o.n, M: 2, D: 1, A: 2, B: 2}, signer)
	return entry.Scheme, err
}

func run(args []string, stdout io.Writer) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	var reg *obs.Registry
	// Relay, demo and chaos summaries and assertions read their instruments,
	// so those roles run with a live registry even when nothing exports it.
	if o.out.Metrics != "" || o.out.Pprof != "" || o.relay || o.demo || o.chaos {
		reg = obs.NewRegistry()
	}
	tel := serve.NewTelemetry(o.telCfg, reg)
	health := &obs.Health{}
	o.out.Registry, o.out.Stdout = reg, stdout
	o.out.Status = func(w io.Writer) {
		fmt.Fprintf(w, "mcserved -streams %d -scheme %s -batch %d -flush %v (%s)\n",
			o.Streams, o.schemeID, o.Batch, o.Flush, health)
		if slo := tel.SLO(); slo != nil {
			_ = slo.WriteText(w)
		}
	}
	o.out.Routes = func(mux *http.ServeMux) []string {
		health.Register(mux)
		if slo := tel.SLO(); slo != nil {
			slo.Register(mux)
			return []string{"/healthz", "/slo"}
		}
		return []string{"/healthz"}
	}
	out, err := cli.Open(o.out)
	if err != nil {
		return err
	}
	defer out.Close() // a failed run still finishes its outputs
	defer health.SetDraining()
	// The crash artifact outlives the crash: a panic anywhere below dumps
	// the flight record before re-panicking, and SIGUSR1 dumps on demand.
	defer tel.RecoverDump()
	defer installSIGUSR1(tel)()
	switch {
	case o.chaos:
		err = o.Chaos(o.chaosCfg, reg, tel, stdout)
	case o.demo:
		fmt.Fprintf(stdout, "mcserved demo: %d streams (%s), %d blocks/stream, batch %d, flush %v\n",
			o.Streams, o.schemeID, o.Blocks, o.Batch, o.Flush)
		err = o.Demo(reg, tel, stdout)
	default:
		err = runRole(o, reg, health, tel, stdout)
	}
	if err != nil {
		return err
	}
	return out.Close()
}

// installSIGUSR1 arms the on-demand flight dump; the returned function
// removes the handler.
func installSIGUSR1(tel *serve.Telemetry) func() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGUSR1)
	go func() {
		for range ch {
			tel.NoteFault("sigusr1", "operator-requested dump")
			tel.Dump("sigusr1")
		}
	}()
	return func() {
		signal.Stop(ch) // no send can follow, so closing is safe
		close(ch)
	}
}

// runRole runs one of the long-lived roles until interrupt, SIGTERM or
// (for the listening roles) -duration cancels its context.
func runRole(o options, reg *obs.Registry, health *obs.Health, tel *serve.Telemetry, stdout io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.duration > 0 && o.listen != "" {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.duration)
		defer cancel()
	}
	switch {
	case o.relay:
		return runRelay(ctx, o, reg, tel, stdout)
	case o.connect != "":
		return runReceiver(ctx, o, reg, tel, stdout)
	default:
		return runDaemon(ctx, o, reg, health, tel, stdout)
	}
}

// runDaemon is -listen: Handler(server), with synthetic publishers.
func runDaemon(ctx context.Context, o options, reg *obs.Registry, health *obs.Health, tel *serve.Telemetry, stdout io.Writer) error {
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	d, err := o.StartDaemon(ln, reg, tel, nil)
	if err != nil {
		ln.Close()
		return err
	}
	fmt.Fprintf(stdout, "mcserved: serving %d streams on %s\n", o.Streams, ln.Addr())
	health.SetReady()
	<-ctx.Done()
	health.SetDraining()
	// Stop drains, signs the final batch, and (with -checkpoint) records a
	// clean checkpoint — the flush-on-SIGTERM path.
	err = d.Stop(false)
	tot := d.Srv.BatchTotals()
	fmt.Fprintf(stdout, "mcserved: stopped; %d signatures over %d roots (amortization %.2fx)\n",
		tot.Signatures, tot.SignedRoots, tot.AmortizationRatio())
	return err
}

// runReceiver is -connect: Session(VerifySink).
func runReceiver(ctx context.Context, o options, reg *obs.Registry, tel *serve.Telemetry, stdout io.Writer) error {
	sink, err := o.NewVerifySink(64, reg, tel)
	if err != nil {
		return err
	}
	sess := o.Session(o.connect, sink, reg, reg.Counter("server.reconnects"))
	if err := sess.Run(ctx); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "mcserved receiver: %d packets, %d verified messages (+%d padding) across %d streams\n",
		sink.Packets, sink.Authed, sink.Padding, sink.Streams())
	if n := sess.Sessions; n > 1 {
		fmt.Fprintf(stdout, "mcserved receiver: %d reconnects across %d sessions\n", n-1, n)
	}
	return nil
}

// runRelay is -relay: Session(Relay) + Handler(Relay).
func runRelay(ctx context.Context, o options, reg *obs.Registry, tel *serve.Telemetry, stdout io.Writer) error {
	relay, err := serve.NewRelay(o.Streams, o.Repair, reg, tel.Spans())
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "mcserved relay: %s -> serving on %s (%d streams)\n", o.connect, ln.Addr(), o.Streams)
	err = o.RunRelay(ctx, relay, o.connect, ln, reg, tel)
	count := func(name string) int64 { return reg.Counter(name).Value() }
	fmt.Fprintf(stdout, "mcserved relay: forwarded %d packets, served %d catch-up, %d reconnects, %d queue drops\n",
		count(serve.MetricRelayForwarded), count(serve.MetricRelayCatchupServed),
		count(serve.MetricRelayReconnects), count(serve.MetricRelayDrops))
	return err
}
