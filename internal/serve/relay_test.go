package serve

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/delay"
	"mcauth/internal/fault"
	"mcauth/internal/loss"
	"mcauth/internal/netsim"
	"mcauth/internal/obs"
	"mcauth/internal/packet"
	"mcauth/internal/scheme"
	"mcauth/internal/scheme/emss"
	"mcauth/internal/stream"
	"mcauth/internal/transport"
)

// relayTestConfig is the shared small topology: a handful of streams so
// daemon, relay and receiver all build matching schemes, with unlimited
// receiver redials for the kill tests.
func relayTestConfig(key string) Config {
	return Config{
		Streams: 4, Key: key,
		Scheme: func(_ uint64, signer crypto.Signer) (scheme.Scheme, error) {
			return emss.New(emss.Config{N: 8, M: 2, D: 1}, signer)
		},
		Rate: 200 * time.Microsecond, Batch: 16, Flush: 30 * time.Millisecond,
		Repair: 64, WriteTimeout: 10 * time.Second, VerifyBatch: 32,
		Reconnect: -1, ReconnectBackoff: 10 * time.Millisecond,
	}
}

func testTelemetry(reg *obs.Registry) *Telemetry {
	return NewTelemetry(TelemetryConfig{SpanBuf: 8192, SLOWindow: time.Minute}, reg)
}

func listen(t *testing.T, addr string) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func startTestDaemon(t *testing.T, c Config, reg *obs.Registry, tel *Telemetry) (*Daemon, string) {
	t.Helper()
	ln := listen(t, "127.0.0.1:0")
	d, err := c.StartDaemon(ln, reg, tel, nil)
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	return d, ln.Addr().String()
}

// testRelay is an in-process relay incarnation between the daemon and the
// downstream listener.
type testRelay struct {
	*Relay
	addr string
	stop context.CancelFunc
	done chan error
}

func startTestRelay(t *testing.T, c Config, reg *obs.Registry, tel *Telemetry, upstream, addr string,
	mutate func(uint64, *packet.Packet) *packet.Packet) *testRelay {
	t.Helper()
	relay, err := NewRelay(c.Streams, c.Repair, reg, tel.Spans())
	if err != nil {
		t.Fatal(err)
	}
	relay.mutate = mutate
	ln := listen(t, addr)
	ctx, cancel := context.WithCancel(context.Background())
	tr := &testRelay{Relay: relay, addr: ln.Addr().String(), stop: cancel, done: make(chan error, 1)}
	go func() { tr.done <- c.RunRelay(ctx, relay, upstream, ln, reg, tel) }()
	return tr
}

// kill tears the relay down mid-flight; all relay goroutines have exited
// when it returns.
func (tr *testRelay) kill(t *testing.T) {
	t.Helper()
	tr.stop()
	if err := <-tr.done; err != nil {
		t.Fatal(err)
	}
}

// testReceiver is a verifying Session running in the background.
type testReceiver struct {
	sink *VerifySink
	sess *Session
	stop context.CancelFunc
	done chan error
}

func startTestReceiver(t *testing.T, c Config, reg *obs.Registry, tel *Telemetry, addr string,
	onAuth func(uint64, stream.Authenticated) error) *testReceiver {
	t.Helper()
	sink, err := c.NewVerifySink(64, reg, tel)
	if err != nil {
		t.Fatal(err)
	}
	sink.OnAuth = onAuth
	ctx, cancel := context.WithCancel(context.Background())
	tr := &testReceiver{
		sink: sink,
		sess: c.Session(addr, sink, reg, reg.Counter("server.reconnects")),
		stop: cancel,
		done: make(chan error, 1),
	}
	go func() { tr.done <- tr.sess.Run(ctx) }()
	return tr
}

// countingAuth wraps a receiver's onAuth hook with an atomic tally the
// test goroutine can poll while the session runs.
func countingAuth(count *atomic.Int64, inner func(uint64, stream.Authenticated) error) func(uint64, stream.Authenticated) error {
	return func(streamID uint64, a stream.Authenticated) error {
		if inner != nil {
			if err := inner(streamID, a); err != nil {
				return err
			}
		}
		if len(a.Payload) > 0 {
			count.Add(1)
		}
		return nil
	}
}

// waitAuthed polls until the receiver has authenticated at least want
// messages or the deadline passes.
func waitAuthed(count *atomic.Int64, want int64, deadline time.Duration) bool {
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		if count.Load() >= want {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// TestRelayServesDownstream: daemon -> relay -> receiver in one process.
// The receiver connects only to the relay and must verify live traffic
// with nothing forged.
func TestRelayServesDownstream(t *testing.T) {
	c := relayTestConfig("test-relay-e2e")
	reg := obs.NewRegistry()
	tel := testTelemetry(reg)

	daemon, daemonAddr := startTestDaemon(t, c, reg, tel)
	relay := startTestRelay(t, c, reg, tel, daemonAddr, "127.0.0.1:0", nil)

	cv := &chaosVerifier{seen: make(map[string]string)}
	var authed atomic.Int64
	recv := startTestReceiver(t, c, reg, tel, relay.addr, countingAuth(&authed, cv.check))

	if !waitAuthed(&authed, 32, 10*time.Second) {
		t.Fatalf("receiver authenticated only %d messages through the relay", authed.Load())
	}

	if err := daemon.Stop(false); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	recv.stop()
	relay.kill(t)
	if err := <-recv.done; err != nil {
		t.Fatal(err)
	}
	if cv.forged > 0 {
		t.Fatalf("%d forged authentications through the relay", cv.forged)
	}
	if reg.Counter(MetricRelayForwarded).Value() == 0 {
		t.Fatal("relay forwarded nothing")
	}
}

// TestRelayForwardedNameShared: the relay daemon and the simulated relay
// tree (netsim.RunOverlay) count forwarded packets under one name.
func TestRelayForwardedNameShared(t *testing.T) {
	s, err := confScheme(crypto.NewSignerFromString("names"))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := loss.NewUniformTree(1, 1, 2, nil, loss.Bernoulli{})
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, confN)
	for i := range payloads {
		payloads[i] = []byte(fmt.Sprintf("msg-%d", i))
	}
	reg := obs.NewRegistry()
	cfg := netsim.Config{Receivers: 2, Delay: delay.Constant{D: time.Millisecond}, SendInterval: time.Millisecond, Seed: 1, Metrics: reg}
	if _, err := netsim.RunOverlay(s, cfg, netsim.OverlayConfig{Tree: tree}, 1, payloads); err != nil {
		t.Fatal(err)
	}
	if reg.Counter(MetricRelayForwarded).Value() == 0 {
		t.Fatalf("the simulated relay tree counted nothing under %q", MetricRelayForwarded)
	}
}

// TestRelayChaosSoak is the mid-tree kill: the daemon stays up the whole
// soak while the relay between it and the receiver is killed and
// restarted (cold store) every cycle. The receiver must reconnect through
// the relay's address, the restarted relay must refill its retention from
// the daemon (its upstream resume hello asks From 0 on a cold store) and
// replay catch-up to the receiver's hello cursors, and nothing forged or
// forked may authenticate across any kill.
func TestRelayChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("relay chaos soak is a multi-second wall-clock test")
	}
	c := relayTestConfig("test-relay-chaos")
	reg := obs.NewRegistry()
	tel := testTelemetry(reg)

	daemon, upstreamAddr := startTestDaemon(t, c, reg, tel)

	// Bind once to fix the relay's downstream address across incarnations.
	probe := listen(t, "127.0.0.1:0")
	relayAddr := probe.Addr().String()
	probe.Close()

	cv := &chaosVerifier{seen: make(map[string]string)}
	var authed atomic.Int64
	recv := startTestReceiver(t, c, reg, tel, relayAddr, countingAuth(&authed, cv.check))

	const cycles = 4
	for cycle := 0; cycle < cycles; cycle++ {
		relay := startTestRelay(t, c, reg, tel, upstreamAddr, relayAddr, nil)
		time.Sleep(400 * time.Millisecond)
		relay.kill(t)
		// Downtime before the next incarnation: the receiver backs off and
		// falls behind the still-publishing daemon, and the restarted relay
		// refills its cold store from upstream before the receiver's resume
		// hello lands — the catch-up path this soak exists to exercise.
		time.Sleep(150 * time.Millisecond)
	}
	// One final incarnation drains the tail, so the receiver is not left
	// mid-reconnect when we stop it.
	relay := startTestRelay(t, c, reg, tel, upstreamAddr, relayAddr, nil)
	time.Sleep(400 * time.Millisecond)

	if err := daemon.Stop(false); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	recv.stop()
	relay.kill(t)
	if err := <-recv.done; err != nil {
		t.Fatalf("receiver: %v", err)
	}

	if cv.forged > 0 {
		t.Fatalf("%d forged or forked authentications across the relay kills", cv.forged)
	}
	if n := recv.sess.Sessions; n < 2 {
		t.Fatalf("receiver never reconnected through a relay kill (%d sessions) — the soak proved nothing", n)
	}
	if reg.Counter(MetricRelayCatchupServed).Value() == 0 {
		t.Fatal("no downstream resume catch-up was served by any relay incarnation")
	}
	if authed.Load() == 0 {
		t.Fatal("nothing authenticated through the soak")
	}
}

// TestRelayForgedRepair is the process-level adversarial invariant: a
// poisoned relay whose store and live forwarding both serve forged
// payloads on one stream must yield zero authenticated messages on that
// stream — and must not disturb the others. The relay holds no signing
// key, so a forgery cannot carry a valid hash chain or signature.
func TestRelayForgedRepair(t *testing.T) {
	c := relayTestConfig("test-relay-forged")
	reg := obs.NewRegistry()
	tel := testTelemetry(reg)

	daemon, daemonAddr := startTestDaemon(t, c, reg, tel)
	const poisoned = uint64(1)
	var forgedInjected atomic.Int64
	mutate := func(streamID uint64, p *packet.Packet) *packet.Packet {
		if streamID != poisoned || len(p.Payload) == 0 {
			return p
		}
		fp := *p
		fp.Payload = fault.ForgedPayload(42 + p.BlockID<<16 + uint64(p.Index))
		forgedInjected.Add(1)
		return &fp
	}
	relay := startTestRelay(t, c, reg, tel, daemonAddr, "127.0.0.1:0", mutate)

	var authed, poisonedAuthed atomic.Int64
	recv := startTestReceiver(t, c, reg, tel, relay.addr, countingAuth(&authed, func(streamID uint64, a stream.Authenticated) error {
		if fault.IsForgedPayload(a.Payload) {
			return fmt.Errorf("forged payload authenticated on stream %d block %d index %d", streamID, a.BlockID, a.Index)
		}
		if streamID == poisoned && len(a.Payload) > 0 {
			poisonedAuthed.Add(1)
		}
		return nil
	}))

	if !waitAuthed(&authed, 24, 10*time.Second) {
		t.Fatalf("healthy streams authenticated only %d messages", authed.Load())
	}
	if err := daemon.Stop(false); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	recv.stop()
	relay.kill(t)
	if err := <-recv.done; err != nil {
		t.Fatalf("receiver: %v", err)
	}
	if forgedInjected.Load() == 0 {
		t.Fatal("the relay never forged anything; the scenario is vacuous")
	}
	if poisonedAuthed.Load() != 0 {
		t.Fatalf("security invariant violated: %d messages authenticated on the poisoned stream", poisonedAuthed.Load())
	}
	if authed.Load() == 0 {
		t.Fatal("healthy streams authenticated nothing")
	}
}

// TestRelayConcurrentControlPlane is the relay-tally race: downstream
// connections each send their one resume hello at once while upstream
// keeps ingesting, and relay.catchup_served must come out exact. The
// ingest is on stream 2, so stream 1's retention, and with it every
// connection's catch-up, stays fixed. Run under -race.
func TestRelayConcurrentControlPlane(t *testing.T) {
	f := newRelayFixture(t)
	f.emit(t, 0, 4)
	retained := len(f.feed.ResumeFrom(1, 0))
	catchup0 := f.catchup.Value()

	const conns = 8
	ln := listen(t, "127.0.0.1:0")
	h := &handler{Feed: f.feed, WriteTimeout: 5 * time.Second}
	listened := make(chan struct{})
	go func() {
		defer close(listened)
		h.listen(ln)
	}()
	stop, ingested := make(chan struct{}), make(chan int, 1)
	go func() {
		n := 0
		defer func() { ingested <- n }()
		for ; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			p := &packet.Packet{BlockID: uint64(n / confN), Index: uint32(n % confN), Payload: []byte("live")}
			if err := f.feed.(*Relay).Packet(2, p); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := transport.WriteHello(conn, []transport.ResumePoint{{StreamID: 1, From: 0}}); err != nil {
				t.Error(err)
				return
			}
			// Stream 1 frames are all catch-up; stream 2's live ones pass.
			mr := transport.NewMuxFrameReader(conn)
			_ = conn.SetReadDeadline(time.Now().Add(20 * time.Second))
			for n := 0; n < retained; {
				id, _, err := mr.ReadPacket()
				if err != nil {
					t.Errorf("catch-up frame %d: %v", n, err)
					return
				}
				if id == 1 {
					n++
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if <-ingested == 0 {
		t.Error("nothing was ingested upstream while the hellos were answered")
	}
	ln.Close()
	f.close()
	<-listened
	if got, want := f.catchup.Value()-catchup0, int64(conns*retained); got != want {
		t.Errorf("relay.catchup_served moved by %d, want %d", got, want)
	}
}

// TestRelayShedsDataBeforeSignatures: a stalled downstream on a relay
// loses data packets first. Its queue backs up into the reserved tail,
// data sheds there, and every signature packet still gets in — losing a
// root would collapse its whole block's q_min for one slow reader.
func TestRelayShedsDataBeforeSignatures(t *testing.T) {
	f := newRelayFixture(t)
	stalled, err := f.feed.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	// More than a queue of packets, with fewer signatures after the data
	// limit is reached than the reserved tail holds.
	const blocks = relayQueueDepth/confN + 100
	f.produce(t, 0, blocks)
	reg := func(name string) int64 { return f.reg.Counter(name).Value() }
	if reg(metricRelayShedData) == 0 {
		t.Fatal("nothing shed: the scenario is vacuous")
	}
	if got := reg(metricRelayShedSig); got != 0 {
		t.Errorf("%d signature packets shed while data was still queued", got)
	}
	if got, want := reg(MetricRelayDrops), reg(metricRelayShedData)+reg(metricRelayShedSig); got != want {
		t.Errorf("relay.drops = %d, want shed_data + shed_sig = %d", got, want)
	}
	if got := stalled.Drops(); got != reg(MetricRelayDrops) {
		t.Errorf("subscriber counted %d drops, relay %d", got, reg(MetricRelayDrops))
	}
	queuedSigs := 0
	for len(stalled.C()) > 0 {
		if d := <-stalled.C(); len(d.Packet.Signature) > 0 {
			queuedSigs++
		}
	}
	if queuedSigs != blocks {
		t.Errorf("%d of %d signature packets reached the stalled subscriber's queue", queuedSigs, blocks)
	}
}

// TestSpansJoinThreeHops: publisher -> relay -> receiver, each with its own
// span ring. Some block must be traceable through all three hops under one
// trace ID: signed and framed by the publisher, ingested and re-framed
// by the relay, decoded and authenticated by the receiver.
func TestSpansJoinThreeHops(t *testing.T) {
	c := relayTestConfig("test-relay-spans")
	reg := obs.NewRegistry()
	pubTel, relayTel, recvTel := testTelemetry(reg), testTelemetry(reg), testTelemetry(reg)

	daemon, daemonAddr := startTestDaemon(t, c, reg, pubTel)
	relay := startTestRelay(t, c, reg, relayTel, daemonAddr, "127.0.0.1:0", nil)
	var authed atomic.Int64
	recv := startTestReceiver(t, c, reg, recvTel, relay.addr, countingAuth(&authed, nil))
	if !waitAuthed(&authed, 64, 10*time.Second) {
		t.Fatalf("receiver authenticated only %d messages", authed.Load())
	}
	if err := daemon.Stop(false); err != nil {
		t.Fatal(err)
	}
	recv.stop()
	relay.kill(t)
	if err := <-recv.done; err != nil {
		t.Fatal(err)
	}

	kinds := func(tel *Telemetry) map[uint64]map[obs.SpanKind]bool {
		out := make(map[uint64]map[obs.SpanKind]bool)
		for _, s := range tel.Spans().Snapshot() {
			if out[s.Trace] == nil {
				out[s.Trace] = make(map[obs.SpanKind]bool)
			}
			out[s.Trace][s.Kind] = true
		}
		return out
	}
	pub, mid, far := kinds(pubTel), kinds(relayTel), kinds(recvTel)
	for trace, k := range far {
		if k[obs.SpanDecode] && k[obs.SpanAuthenticate] &&
			mid[trace][obs.SpanRelayIngest] && mid[trace][obs.SpanMuxWrite] &&
			pub[trace][obs.SpanPush] && pub[trace][obs.SpanMuxWrite] {
			return
		}
	}
	t.Fatalf("no block joins all three hops: %d publisher, %d relay, %d receiver traces", len(pub), len(mid), len(far))
}
