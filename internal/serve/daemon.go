package serve

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/obs"
	"mcauth/internal/scheme"
	"mcauth/internal/server"
	"mcauth/internal/stream"
	"mcauth/internal/verifier"
)

// Config is mcserved's deployment flags: publisher, relay and receiver
// must build matching schemes from the same key.
type Config struct {
	Streams int // stream IDs 1..Streams
	// Scheme builds stream id's scheme around signer.
	Scheme func(id uint64, signer crypto.Signer) (scheme.Scheme, error)
	Key    string // derives the signing (and verification) key
	// Blocks is how many blocks per stream the demo publishes, Rate the
	// synthetic publishers' inter-message gap.
	Blocks int
	Rate   time.Duration
	// Batch and Flush are the batch signer's ceilings (server.Config's
	// BatchSize and FlushInterval), Checkpoint ("" = none)
	// the crash-recovery file, Repair the per-stream retention in blocks.
	Batch      int
	Flush      time.Duration
	Checkpoint string
	Repair     int
	// WriteTimeout is the handler's; VerifyBatch and VerifyCache are
	// verifyConfig's; Reconnect and ReconnectBackoff are Session's MaxFails
	// and Backoff.
	WriteTimeout             time.Duration
	VerifyBatch, VerifyCache int
	Reconnect                int
	ReconnectBackoff         time.Duration
}

// StartServer creates the server and opens every stream. A configured
// checkpoint file is opened (or resumed) here, so a restarted daemon picks
// up every stream past its reserved watermark.
func (c Config) StartServer(reg *obs.Registry, tel *Telemetry) (*server.Server, error) {
	var cp *server.Checkpoint
	if c.Checkpoint != "" {
		var err error
		if cp, err = server.OpenCheckpoint(c.Checkpoint); err != nil {
			return nil, err
		}
	}
	srv, err := server.New(server.Config{
		Signer:             crypto.NewSignerFromString(c.Key),
		BatchSize:          c.Batch,
		FlushInterval:      c.Flush,
		MaxSubscriberQueue: 1 << 16,
		Metrics:            reg,
		Spans:              tel.Spans(),
		Checkpoint:         cp,
		RepairBlocks:       c.Repair,
	})
	if err != nil {
		return nil, err
	}
	for id := uint64(1); id <= uint64(c.Streams); id++ {
		id := id
		if err := srv.OpenStream(id, func(signer crypto.Signer) (scheme.Scheme, error) {
			return c.Scheme(id, signer)
		}); err != nil {
			srv.Close()
			return nil, err
		}
	}
	return srv, nil
}

// Publish drives every stream from its own goroutine through blocks
// [from, to) of its messages (to 0 = no limit) and returns once each
// stream is done, ctx is cancelled, or the server closes.
func (c Config) Publish(ctx context.Context, srv *server.Server, from, to int) {
	var wg sync.WaitGroup
	defer wg.Wait()
	for id := uint64(1); id <= uint64(c.Streams); id++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			sch, err := c.Scheme(id, crypto.NewSignerFromString(c.Key))
			if err != nil {
				return
			}
			end := sch.BlockSize() * to
			for i := sch.BlockSize() * from; (to == 0 || i < end) && ctx.Err() == nil; i++ {
				if err := srv.Publish(id, []byte(fmt.Sprintf("stream-%d msg-%d", id, i))); err != nil {
					return // server closing
				}
				if c.Rate > 0 {
					time.Sleep(c.Rate)
				}
			}
		}(id)
	}
}

// NewVerifySink builds the deployment's verifying subscriber, tolerating
// live blocks of reorder and late signatures per stream.
func (c Config) NewVerifySink(live int, reg *obs.Registry, tel *Telemetry) (*VerifySink, error) {
	return newVerifySink(verifyConfig{
		NewReceiver: func(id uint64) (*stream.Receiver, error) {
			s, err := c.Scheme(id, crypto.BatchCapable(crypto.NewSignerFromString(c.Key)))
			if err != nil {
				return nil, err
			}
			r, err := stream.NewReceiver(s, live)
			if err != nil {
				return nil, err
			}
			// The demux adds the cache, queue and span ring; the registry
			// is what makes the verifier.* names of a simulation appear
			// on a receiver's /metrics too.
			return r, r.SetEnv(verifier.Env{Metrics: reg})
		},
		MaxStreams:  c.Streams,
		VerifyCache: c.VerifyCache,
		VerifyBatch: c.VerifyBatch,
		Metrics:     reg,
		Tel:         tel,
	})
}

// Session returns the deployment's upstream subscriber to addr.
func (c Config) Session(addr string, sink sink, reg *obs.Registry, reconnects *obs.Counter) *Session {
	return &Session{
		Addr:       addr,
		Sink:       sink,
		MaxFails:   c.Reconnect,
		Backoff:    c.ReconnectBackoff,
		Metrics:    reg,
		Reconnects: reconnects,
	}
}

// Daemon is one publishing incarnation: server, synthetic publishers, and
// a handler serving it on a listener.
type Daemon struct {
	Srv *server.Server

	ln      net.Listener
	stopPub context.CancelFunc
	pubs    chan struct{}   // closed when the publishers have exited
	conns   <-chan struct{} // closed when the handler has
}

// listen serves feed on ln in the background; the returned channel closes
// when handler.listen returns.
func (c Config) listen(feed feed, ln net.Listener, reg *obs.Registry, tel *Telemetry, wrap func(net.Conn) net.Conn) <-chan struct{} {
	h := &handler{Feed: feed, Metrics: reg, Spans: tel.Spans(), WriteTimeout: c.WriteTimeout, Wrap: wrap}
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.listen(ln)
	}()
	return done
}

// StartDaemon starts an incarnation on ln; wrap is its handler's Wrap.
func (c Config) StartDaemon(ln net.Listener, reg *obs.Registry, tel *Telemetry, wrap func(net.Conn) net.Conn) (*Daemon, error) {
	srv, err := c.StartServer(reg, tel)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &Daemon{Srv: srv, ln: ln, stopPub: cancel, pubs: make(chan struct{}), conns: c.listen(srv, ln, reg, tel, wrap)}
	go func() {
		defer close(d.pubs)
		c.Publish(ctx, srv, 0, 0)
	}()
	return d, nil
}

// Stop ends the incarnation and returns once all of it has exited:
// publishers, then the server — Close, or with kill the crash-equivalent
// Kill — then the listener. Connections end on their own, after writing
// out what the server had already queued for them.
func (d *Daemon) Stop(kill bool) error {
	d.stopPub()
	<-d.pubs
	var err error
	if kill {
		d.Srv.Kill()
	} else {
		err = d.Srv.Close()
	}
	d.ln.Close()
	<-d.conns
	return err
}

// RunRelay is the relay role: a Session feeding relay from upstream and a
// handler re-serving it on ln, until ctx is cancelled or upstream's redial
// budget is exhausted. Everything it started has exited when it returns.
func (c Config) RunRelay(ctx context.Context, relay *Relay, upstream string, ln net.Listener, reg *obs.Registry, tel *Telemetry) error {
	conns := c.listen(relay, ln, reg, tel, nil)
	err := c.Session(upstream, relay, reg, reg.Counter(MetricRelayReconnects)).Run(ctx)
	ln.Close()
	relay.Close()
	<-conns
	return err
}

// LoopbackCounts is what an in-process run counted: messages published
// (server.published), messages and padding the loopback receiver verified,
// and deliveries its subscription dropped. Elapsed is the wall time from
// the first publish to the server's close.
type LoopbackCounts struct {
	Published, Verified, Padding, Dropped int64
	Elapsed                               time.Duration
}

// Loopback finishes an in-process run on srv: a verifying subscriber joins
// and is caught up on whatever srv retains, every stream publishes blocks
// [from, c.Blocks), and srv is closed. It returns once the subscriber has
// drained; judging the counts is the caller's.
func (c Config) Loopback(srv *server.Server, from int, reg *obs.Registry, tel *Telemetry) (LoopbackCounts, error) {
	sink, err := c.NewVerifySink(c.Blocks+2, reg, tel)
	if err != nil {
		srv.Close()
		return LoopbackCounts{}, err
	}
	sub, err := srv.Subscribe()
	if err != nil {
		srv.Close()
		return LoopbackCounts{}, err
	}
	// Subscribe, then replay: what is signed after the subscription
	// arrives live, what was retained before it is replayed, and an overlap
	// only costs duplicates the verifiers count and discard.
	for id := uint64(1); id <= uint64(c.Streams); id++ {
		for _, p := range srv.ResumeFrom(id, 0) {
			if err := sink.Packet(id, p); err != nil {
				srv.Close()
				return LoopbackCounts{}, err
			}
		}
	}
	drained := make(chan error, 1)
	go func() { drained <- sink.drain(sub.C()) }()
	start := time.Now()
	c.Publish(context.Background(), srv, from, c.Blocks)
	if err := srv.Close(); err != nil {
		return LoopbackCounts{}, err
	}
	elapsed := time.Since(start)
	if err := <-drained; err != nil {
		return LoopbackCounts{}, err
	}
	return LoopbackCounts{
		Published: reg.Counter("server.published").Value(),
		Verified:  sink.Authed,
		Padding:   sink.Padding,
		Dropped:   sub.Drops(),
		Elapsed:   elapsed,
	}, nil
}

// Demo runs publisher and verifying receiver in one process (Loopback),
// prints the summary (below the caller's header line), and fails unless
// every published message verified.
func (c Config) Demo(reg *obs.Registry, tel *Telemetry, stdout io.Writer) error {
	srv, err := c.StartServer(reg, tel)
	if err != nil {
		return err
	}
	lb, err := c.Loopback(srv, 0, reg, tel)
	if err != nil {
		return err
	}
	tot := srv.BatchTotals()
	fmt.Fprintf(stdout, "published        %d messages in %v (%.0f msg/s)\n",
		lb.Published, lb.Elapsed.Round(time.Millisecond), float64(lb.Published)/lb.Elapsed.Seconds())
	fmt.Fprintf(stdout, "blocks emitted   %d\n", reg.Counter("server.blocks").Value())
	fmt.Fprintf(stdout, "verified         %d messages (+%d padding) by loopback receiver\n", lb.Verified, lb.Padding)
	fmt.Fprintf(stdout, "signatures       %d over %d block roots (amortization %.2fx)\n",
		tot.Signatures, tot.SignedRoots, tot.AmortizationRatio())
	hold := reg.Histogram("server.root_hold_ns").Data()
	fmt.Fprintf(stdout, "root hold        p50 %v  p99 %v  (target %v or %d roots, at %d roots/s)\n",
		time.Duration(hold.Quantile(0.5)).Round(time.Microsecond),
		time.Duration(hold.Quantile(0.99)).Round(time.Microsecond),
		time.Duration(reg.Gauge("server.root_hold_target_ns").Value()).Round(time.Microsecond),
		reg.Gauge("server.batch_fill_target").Value(),
		reg.Gauge("server.root_rate_per_s").Value())
	fmt.Fprintf(stdout, "dropped          %d (subscriber backpressure)\n", lb.Dropped)
	if lb.Verified < lb.Published {
		return fmt.Errorf("verified %d of %d published messages", lb.Verified, lb.Published)
	}
	return nil
}
