package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/obs"
	"mcauth/internal/scheme"
	"mcauth/internal/scheme/authtree"
	"mcauth/internal/scheme/emss"
	"mcauth/internal/scheme/rohatgi"
	"mcauth/internal/scheme/signeach"
	"mcauth/internal/server"
	"mcauth/internal/stats"
	"mcauth/internal/stream"
	"mcauth/internal/transport"
	"mcauth/internal/verifier"
)

// The serve workloads re-assemble cmd/mcserved's startServer, serveConn
// and receiverSession.session loops, because those live in package main.
// Every constant below is mcserved's default; the loops are the traffic
// being measured and are kept as the daemon has them, inefficiencies
// included.
const (
	signingKey    = "mcserved-demo"
	blockSize     = 8  // -n
	batchSize     = 64 // -batch
	flushInterval = 50 * time.Millisecond
	subQueue      = 1 << 16
	repairBlocks  = 64   // -repair
	verifyBatch   = 32   // -verify-batch
	verifyCache   = 1024 // -verify-cache
	liveBlocks    = 64   // receiverSession's stream.NewReceiver(s, 64)
	writeTimeout  = 10 * time.Second
	helloTimeout  = 2 * time.Second

	payloadSize = 256
	fillers     = 1 << 14
)

// mixedScheme is mcserved's -scheme mixed: the four non-timed
// constructions by stream id.
func mixedScheme(id uint64, signer crypto.Signer) (scheme.Scheme, error) {
	switch id % 4 {
	case 0:
		return emss.New(emss.Config{N: blockSize, M: 2, D: 1}, signer)
	case 1:
		return rohatgi.New(blockSize, signer)
	case 2:
		return authtree.New(blockSize, signer)
	default:
		return signeach.New(blockSize, signer)
	}
}

// payloadGen derives every message from (seed, seq): a filler chosen by
// seq with seq written over its first eight bytes, so the receiving side
// can name the message a payload belongs to and regenerate it.
type payloadGen struct{ fill [][]byte }

func newPayloadGen(seed uint64) payloadGen {
	rng := stats.NewRNG(seed)
	g := payloadGen{fill: make([][]byte, fillers)}
	for i := range g.fill {
		g.fill[i] = make([]byte, payloadSize)
		for j := 0; j < payloadSize; j += 8 {
			binary.LittleEndian.PutUint64(g.fill[i][j:], rng.Uint64())
		}
	}
	return g
}

func (g payloadGen) make(seq uint64) []byte {
	b := make([]byte, payloadSize)
	copy(b, g.fill[seq%fillers])
	binary.BigEndian.PutUint64(b, seq)
	return b
}

// check names the message payload carries and reports whether the payload
// is exactly the one generated for it.
func (g payloadGen) check(payload []byte) (uint64, bool) {
	if len(payload) != payloadSize {
		return 0, false
	}
	seq := binary.BigEndian.Uint64(payload)
	return seq, bytes.Equal(payload[8:], g.fill[seq%fillers][8:])
}

// stamps is a per-message array one goroutine writes during a run and the
// analysis reads after it: 0 means never stamped.
type stamps []int64

func (s *stamps) set(seq uint64, t int64) {
	if seq >= uint64(len(*s)) {
		*s = append(*s, make([]int64, seq+1-uint64(len(*s)))...)
	}
	(*s)[seq] = t
}

func (s stamps) get(seq uint64) int64 {
	if seq >= uint64(len(s)) {
		return 0
	}
	return s[seq]
}

type serveCfg struct {
	streams    int
	publishers int
	// rate is the open-loop offered load in messages per second over all
	// streams; 0 closes the loop instead, with at most window messages
	// published and not yet seen at the far end.
	rate   float64
	window int
	// verify makes the far end mcserved's verifying receiver; without it
	// the far end only reads frames and counts payloads, as a keyless
	// relay does.
	verify bool
}

var (
	servePaced    = serveCfg{streams: 8, publishers: 1, rate: 2000, verify: true}
	serveSaturate = serveCfg{streams: 8, publishers: 1, window: 2048, verify: true}
	sendSaturate  = serveCfg{streams: 8, publishers: 2, window: 8192}
)

// A generator this late at its 99th percentile, or any dropped delivery,
// means the machine and not the system set the numbers: the run is
// invalid. Latency is timed from when a message was due, so lateness
// below this is counted, not hidden.
const maxLateP99 = 20 * time.Millisecond

type serveInst struct {
	cfg    serveCfg
	warmup time.Duration
	tiny   bool
	tr     *tracer
	reg    *obs.Registry // server instruments; traced runs only
	gen    payloadGen

	srv        *server.Server
	sub        *server.Subscriber
	serverConn net.Conn
	clientConn net.Conn
	dmx        *stream.Demux
	verifyQ    *crypto.BatchVerifyQueue
}

func (c serveCfg) setup(p params, tr *tracer) (instance, error) {
	in := &serveInst{cfg: c, warmup: 2 * time.Second, tiny: p.tiny, tr: tr, gen: newPayloadGen(p.seed)}
	if p.tiny {
		in.warmup = 100 * time.Millisecond
	}
	if tr != nil {
		in.reg = obs.NewRegistry()
	}
	if err := in.start(); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// start mirrors mcserved's startServer, the accept and subscribe of
// serveConn, and newReceiverSession with its resume hello.
func (in *serveInst) start() error {
	var err error
	in.srv, err = server.New(server.Config{
		Signer:             crypto.NewSignerFromString(signingKey),
		BatchSize:          batchSize,
		FlushInterval:      flushInterval,
		MaxSubscriberQueue: subQueue,
		Metrics:            in.reg,
		RepairBlocks:       repairBlocks,
	})
	if err != nil {
		return err
	}
	for id := uint64(1); id <= uint64(in.cfg.streams); id++ {
		err := in.srv.OpenStream(id, func(signer crypto.Signer) (scheme.Scheme, error) {
			return mixedScheme(id, signer)
		})
		if err != nil {
			return err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	type accepted struct {
		conn net.Conn
		err  error
	}
	acc := make(chan accepted, 1)
	go func() {
		conn, err := ln.Accept()
		acc <- accepted{conn, err}
	}()
	in.clientConn, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close() // ends the accept
		<-acc
		return err
	}
	a := <-acc
	if a.err != nil {
		return a.err
	}
	in.serverConn = a.conn
	if in.sub, err = in.srv.Subscribe(); err != nil {
		return err
	}
	if err := transport.WriteHello(in.clientConn, nil); err != nil {
		return err
	}
	_ = in.serverConn.SetReadDeadline(time.Now().Add(helloTimeout))
	if _, err := transport.ReadHello(in.serverConn); err != nil {
		return fmt.Errorf("resume hello: %w", err)
	}
	_ = in.serverConn.SetReadDeadline(time.Time{})
	if !in.cfg.verify {
		return nil
	}
	in.dmx, err = stream.NewDemux(func(id uint64) (*stream.Receiver, error) {
		s, err := mixedScheme(id, crypto.BatchCapable(crypto.NewSignerFromString(signingKey)))
		if err != nil {
			return nil, err
		}
		return stream.NewReceiver(s, liveBlocks)
	}, in.cfg.streams)
	if err != nil {
		return err
	}
	cache, err := verifier.NewSharedCache(verifyCache)
	if err != nil {
		return err
	}
	sig, err := crypto.NewSigCache(verifyCache)
	if err != nil {
		return err
	}
	if in.verifyQ, err = crypto.NewBatchVerifyQueue(verifyBatch, sig); err != nil {
		return err
	}
	in.dmx.SetVerifyFastPath(cache, in.verifyQ)
	return nil
}

func (in *serveInst) close() {
	if in.srv != nil {
		in.srv.Kill()
	}
	for _, c := range []net.Conn{in.serverConn, in.clientConn} {
		if c != nil {
			c.Close()
		}
	}
}

// publisher is one load-generating goroutine's record of what it sent.
type publisher struct {
	due   []int64 // when each message was due to be published
	start []int64 // when Publish was called; open loop only, where it can differ
	ret   []int64 // when Publish returned; traced runs only
	err   error
}

// wireOut is the serving side of the connection: serveConn's state.
type wireOut struct {
	conn    *meteredConn
	packets uint64
	seen    stamps // when each message's packet came off Subscriber.C(); traced only
	err     error
}

// farEnd is the receiving side: receiverSession's state, or the counting
// relay's.
type farEnd struct {
	conn    *meteredConn
	packets uint64
	padding int64
	foreign int64  // payloads that are not a published message's
	repeats int64  // deliveries of a message already delivered
	done    stamps // when each message was authenticated (or counted)
	arrive  stamps // when each message's packet was read off the wire; traced only
	loopNS  int64  // wall time of the read loop
	err     error
}

// run is the shared state of one measurement's goroutines.
type serveRun struct {
	in   *serveInst
	clk  clock
	stop chan struct{}
	// sem holds one token per message published and not yet seen at the
	// far end; nil in an open loop.
	sem  chan struct{}
	pubs []*publisher
	out  wireOut
	far  farEnd
}

// publish is one load generator. In a closed loop it publishes whenever
// the window has room; in an open loop message k is due at k intervals
// and is published then, or at once when the generator is behind.
func (r *serveRun) publish(g int, endNS int64) {
	p, in := r.pubs[g], r.in
	step, streams := uint64(len(r.pubs)), uint64(in.cfg.streams)
	var interval float64
	if r.sem == nil {
		interval = float64(time.Second) / in.cfg.rate
		// A Go timer fires only when the P that owns it next schedules,
		// which a busy receiver can put off for milliseconds; an OS sleep
		// on a thread of the generator's own wakes when it is due.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	for k := uint64(0); ; k++ {
		var due int64
		if r.sem != nil {
			select {
			case r.sem <- struct{}{}:
			case <-r.stop:
				return
			}
			due = r.clk.now()
		} else {
			if due = int64(float64(k) * interval); due >= endNS {
				return
			}
			for wait := due - r.clk.now(); wait > 0; wait = due - r.clk.now() {
				ts := syscall.NsecToTimespec(wait)
				_ = syscall.Nanosleep(&ts, nil) // interrupted, it sleeps again
			}
			p.start = append(p.start, r.clk.now())
		}
		p.due = append(p.due, due)
		// Every publisher goes round all the streams, each from its own
		// offset, so the scheme mix stays even however the streams pace it.
		seq := k*step + uint64(g)
		id := (k+uint64(g)*streams/step)%streams + 1
		if err := in.srv.Publish(id, in.gen.make(seq)); err != nil {
			p.due = p.due[:len(p.due)-1]
			if !errors.Is(err, server.ErrClosed) {
				p.err = err
			}
			return
		}
		if in.tr != nil {
			p.ret = append(p.ret, r.clk.now())
		}
	}
}

// serveConn is cmd/mcserved's serveConn after the hello: forward every
// delivery under a write deadline.
func (r *serveRun) serveConn() {
	out := &r.out
	defer out.conn.Close()
	tb := out.conn.tb
	mw := transport.NewMuxFrameWriter(out.conn)
	for d := range r.in.sub.C() {
		out.packets++
		var t0 int64
		if tb != nil {
			t0 = r.clk.now()
			if seq, ok := r.in.gen.check(d.Packet.Payload); ok {
				out.seen.set(seq, t0)
			}
			out.conn.id = out.packets
		}
		_ = out.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		err := mw.WritePacket(d.StreamID, d.Packet)
		if tb != nil {
			tb.add(kMuxWrite, kNone, out.packets, t0, r.clk.now())
		}
		if err != nil {
			out.err = err
			return
		}
	}
}

// delivered records one payload reaching the far end's application.
func (r *serveRun) delivered(payload []byte, at int64) {
	far := &r.far
	if len(payload) == 0 {
		far.padding++
		return
	}
	seq, ok := r.in.gen.check(payload)
	if !ok {
		far.foreign++
		return
	}
	if far.done.get(seq) != 0 {
		far.repeats++
		return
	}
	far.done.set(seq, at)
	if r.sem != nil {
		select {
		case <-r.sem:
		default:
		}
	}
}

func (r *serveRun) authenticated(auths []stream.StreamAuthenticated) {
	if len(auths) == 0 {
		return
	}
	at := r.clk.now()
	for _, a := range auths {
		r.delivered(a.Payload, at)
	}
}

// session is cmd/mcserved's receiverSession.session after the hello, with
// its resolve cadence and its DrainDeferred after every packet.
func (r *serveRun) session() {
	far := &r.far
	defer far.conn.Close()
	tb := far.conn.tb
	dmx, q := r.in.dmx, r.in.verifyQ
	mr := transport.NewMuxFrameReader(far.conn)
	began := r.clk.now()
	defer func() { far.loopNS = r.clk.now() - began }()
	var t0, t1 int64
	for {
		if tb != nil {
			t0 = r.clk.now()
			far.conn.id = far.packets + 1
		}
		id, p, err := mr.ReadPacket()
		if err != nil {
			// End of the feed: settle the verdicts still pending.
			if q.Pending() > 0 {
				q.Resolve()
			}
			r.authenticated(dmx.DrainDeferred())
			return
		}
		far.packets++
		if tb != nil {
			t1 = r.clk.now()
			tb.add(kMuxRead, kNone, far.packets, t0, t1)
			if seq, ok := r.in.gen.check(p.Payload); ok {
				far.arrive.set(seq, t1)
			}
		}
		auths, err := dmx.Ingest(id, p, time.Now())
		if err != nil {
			far.err = err
			return
		}
		if tb != nil {
			t0 = r.clk.now()
			tb.add(kIngest, kNone, far.packets, t1, t0)
		}
		if far.packets%verifyBatch == 0 && q.Pending() > 0 {
			q.Resolve()
			if tb != nil {
				t1 = r.clk.now()
				tb.add(kResolve, kNone, far.packets, t0, t1)
				t0 = t1
			}
		}
		auths = append(auths, dmx.DrainDeferred()...)
		if tb != nil {
			tb.add(kDrain, kNone, far.packets, t0, r.clk.now())
		}
		r.authenticated(auths)
	}
}

// relay is the far end of send_saturate: read frames, count payloads,
// verify nothing.
func (r *serveRun) relay() {
	far := &r.far
	defer far.conn.Close()
	tb := far.conn.tb
	mr := transport.NewMuxFrameReader(far.conn)
	began := r.clk.now()
	defer func() { far.loopNS = r.clk.now() - began }()
	var t0 int64
	for {
		if tb != nil {
			t0 = r.clk.now()
			far.conn.id = far.packets + 1
		}
		_, p, err := mr.ReadPacket()
		if err != nil {
			return
		}
		far.packets++
		t1 := r.clk.now()
		if tb != nil {
			tb.add(kMuxRead, kNone, far.packets, t0, t1)
		}
		r.delivered(p.Payload, t1)
	}
}

func (in *serveInst) measure(dur time.Duration) (*measurement, error) {
	r := &serveRun{in: in, clk: clock{time.Now()}, stop: make(chan struct{})}
	if in.cfg.rate == 0 {
		r.sem = make(chan struct{}, in.cfg.window)
	}
	r.out.conn = &meteredConn{Conn: in.serverConn, clk: r.clk, tb: in.tr.buf(), parent: kMuxWrite, child: kSockWrite}
	r.far.conn = &meteredConn{Conn: in.clientConn, clk: r.clk, tb: in.tr.buf(), parent: kMuxRead, child: kSockRead}

	var wire, pubs sync.WaitGroup
	wire.Add(2)
	go func() { defer wire.Done(); r.serveConn() }()
	go func() {
		defer wire.Done()
		if in.cfg.verify {
			r.session()
		} else {
			r.relay()
		}
	}()
	from, to := int64(in.warmup), int64(in.warmup+dur)
	for range in.cfg.publishers {
		r.pubs = append(r.pubs, &publisher{})
	}
	for g := range r.pubs {
		pubs.Add(1)
		go func() { defer pubs.Done(); r.publish(g, to) }()
	}
	time.Sleep(time.Duration(from - r.clk.now()))
	s0 := snapProc(in.tr != nil)
	from = r.clk.now()
	time.Sleep(time.Duration(to - r.clk.now()))
	s1 := snapProc(in.tr != nil)
	to = r.clk.now()
	close(r.stop)
	pubs.Wait()
	// The post-run drain: Close pads out partial blocks, signs the last
	// batch and ends the feed, so everything published can authenticate.
	closeErr := in.srv.Close()
	wire.Wait()
	err := errors.Join(closeErr, r.out.err, r.far.err)
	for _, p := range r.pubs {
		err = errors.Join(err, p.err)
	}
	if err != nil {
		return nil, err
	}
	return r.analyse(from, to, s0, s1), nil
}

// analyse turns the goroutines' records into metrics once they have all
// ended. The timed window is [from, to).
func (r *serveRun) analyse(from, to int64, s0, s1 procSnap) *measurement {
	in, far := r.in, &r.far
	m := newMeasurement()
	step := len(r.pubs)
	var (
		latency, late []sample
		publishNS     []float64
		residency     []float64
		park          []float64
		doneInWindow  float64
	)
	// The per-message spans are cut from the goroutines' stamps here, after
	// the run, so that recording them costs the run nothing.
	tb := in.tr.buf()
	for g, p := range r.pubs {
		for k, due := range p.due {
			seq := uint64(k*step + g)
			m.attempted++
			done := far.done.get(seq)
			if done == 0 {
				m.failed++
				continue
			}
			if done >= from && done < to {
				doneInWindow++
			}
			if due < from || due >= to {
				continue
			}
			latency = append(latency, sample{due, done - due})
			if p.start != nil {
				late = append(late, sample{due, p.start[k] - due})
			}
			if in.tr == nil {
				continue
			}
			began := due
			if p.start != nil {
				began = p.start[k]
			}
			tb.add(kMessage, kNone, seq, due, done)
			tb.add(kPublish, kMessage, seq, began, p.ret[k])
			publishNS = append(publishNS, float64(p.ret[k]-began))
			if seen := r.out.seen.get(seq); seen > 0 {
				tb.add(kResidency, kMessage, seq, p.ret[k], seen)
				residency = append(residency, float64(seen-p.ret[k]))
			}
			if arrived := far.arrive.get(seq); arrived > 0 {
				tb.add(kPark, kMessage, seq, arrived, done)
				park = append(park, float64(done-arrived))
			}
		}
	}
	m.failed += far.foreign + far.repeats
	drops := in.sub.Drops()
	if drops > 0 {
		m.invalid = fmt.Sprintf("%d deliveries dropped at the subscriber queue", drops)
	}
	lats := sortedDurations(latency)
	window := float64(to-from) / 1e9
	m.e2e["throughput_per_s"] = doneInWindow / window
	m.e2e["latency_p50_ms"] = quantile(lats, 0.5) / 1e6
	m.e2e["latency_p99_ms"] = tail(latency, from) / 1e6
	m.e2e["cpu_us_per_op"] = cpuPerOp(s0, s1, doneInWindow)
	// Whole-run accounting, so that every wire byte meets its message:
	// batch blobs, deadline-flush padding and mux framing all count.
	published := float64(m.attempted)
	m.e2e["overhead_bytes_per_msg"] = ratio(float64(r.out.conn.bytes)-published*payloadSize, published)

	lates := sortedDurations(late)
	if p99 := quantile(lates, 0.99); !in.tiny && p99 > float64(maxLateP99) && m.invalid == "" {
		m.invalid = fmt.Sprintf("load generator ran late: p99 %.2f ms", p99/1e6)
	}
	if in.tr == nil {
		return m
	}

	l := m.layer
	l["gen.late_p99_ms"] = quantile(lates, 0.99) / 1e6
	l["gen.late_max_ms"] = quantile(lates, 1) / 1e6
	l["recv.tta_p999_ms"] = quantile(lats, 0.999) / 1e6
	procLayer(l, s0, s1, doneInWindow)

	pub := sortedCopy(publishNS)
	l["server.publish_ns"] = ratio(sum(pub), float64(len(pub)))
	l["server.publish_p99_ns"] = quantile(pub, 0.99)
	res := sortedCopy(residency)
	l["server.residency_p50_ms"] = quantile(res, 0.5) / 1e6
	l["server.residency_p99_ms"] = quantile(res, 0.99) / 1e6
	hold := in.reg.Histogram("server.root_hold_ns").Data()
	l["server.root_hold_p50_ms"] = hold.Quantile(0.5) / 1e6
	l["server.root_hold_p99_ms"] = hold.Quantile(0.99) / 1e6
	l["server.amortization"] = in.srv.BatchTotals().AmortizationRatio()
	l["server.padding_share"] = ratio(float64(far.padding), float64(far.padding)+published)
	l["server.sub_drops"] = float64(drops)

	t := in.tr.totals()
	sent, read := float64(r.out.packets), float64(far.packets)
	l["transport.mux_write_ns"] = ratio(t[kMuxWrite].self(), sent)
	l["transport.sock_write_ns"] = ratio(float64(t[kSockWrite].total), sent)
	l["transport.mux_read_ns"] = ratio(t[kMuxRead].self(), read)
	l["transport.sock_read_wait_share"] = ratio(float64(t[kSockRead].total), float64(far.loopNS))
	l["transport.wire_bytes_per_pkt"] = ratio(float64(r.out.conn.bytes), sent)
	if !in.cfg.verify {
		return m
	}
	l["stream.ingest_ns"] = ratio(float64(t[kIngest].total), read)
	l["stream.drain_ns"] = ratio(float64(t[kDrain].total), read)
	l["crypto.resolve_ns"] = ratio(float64(t[kResolve].total), read)
	l["crypto.verify_amortization"] = in.verifyQ.Totals().AmortizationRatio()
	l["stream.park_p50_ms"] = median(park) / 1e6
	var active int
	for _, id := range in.dmx.StreamIDs() {
		active += in.dmx.Receiver(id).Totals().ActiveBlocks
	}
	l["stream.active_blocks"] = float64(active)
	// What the receiving goroutine spends per message when it is not
	// waiting for the socket: the base of ledger.recv_explained_share.
	l["ledger.recv_ns_per_msg"] = ratio(float64(far.loopNS-t[kSockRead].total), published)
	return m
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
