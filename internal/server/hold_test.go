package server

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/obs"
	"mcauth/internal/scheme"
)

func TestRootHoldRule(t *testing.T) {
	const flush, batch = 50 * time.Millisecond, 64
	cases := []struct {
		name     string
		rate     float64
		min, max time.Duration
	}{
		{"unknown rate holds the full interval", rateUnknown, flush, flush},
		{"no arrivals, nothing to wait for", 0, 0, 0},
		{"one root a second", 1, 0, 100 * time.Microsecond},
		{"serve_paced: 187 roots/s", 187, 7 * time.Millisecond, 7600 * time.Microsecond},
		{"half the fill rate", 640, flush / 2, flush / 2},
		{"the rate that just fills the batch", 1280, flush, flush},
		{"saturated", 50000, flush, flush},
	}
	for _, c := range cases {
		if got := rootHold(flush, batch, c.rate); got < c.min || got > c.max {
			t.Errorf("%s: hold %v, want in [%v, %v]", c.name, got, c.min, c.max)
		}
	}
	// Monotone in the rate and never above the interval, whatever the
	// ceilings — including the hour-long interval callers use to mean
	// "sign on Close only".
	for _, cfg := range []struct {
		flush time.Duration
		batch int
	}{{flush, batch}, {10 * time.Millisecond, 1}, {30 * time.Millisecond, 512}, {time.Hour, 64}} {
		prev := time.Duration(0)
		for rate := 0.0; rate < 1e6; rate = rate*1.3 + 0.01 {
			got := rootHold(cfg.flush, cfg.batch, rate)
			if got < prev || got > cfg.flush {
				t.Fatalf("flush %v batch %d: hold %v at %.2f roots/s after %v: not monotone within the interval",
					cfg.flush, cfg.batch, got, rate, prev)
			}
			prev = got
		}
		if prev != cfg.flush {
			t.Errorf("flush %v batch %d: hold tops out at %v", cfg.flush, cfg.batch, prev)
		}
	}
}

// The rule's cost bound: below the rate that fills a batch inside the
// interval — where the hold is shorter than the interval and so buys
// latency — a batch signed after the hold covers the root that armed it
// plus the arrivals of the hold, and the signatures spent per second never
// exceed √batch / flush.
func TestRootHoldSignatureRateBound(t *testing.T) {
	for _, cfg := range []struct {
		flush time.Duration
		batch int
	}{{50 * time.Millisecond, 64}, {30 * time.Millisecond, 16}, {100 * time.Millisecond, 1024}, {20 * time.Millisecond, 1}} {
		bound := math.Sqrt(float64(cfg.batch)) / cfg.flush.Seconds()
		fill := float64(cfg.batch) / cfg.flush.Seconds()
		for rate := 0.01; rate < fill; rate *= 1.05 {
			perSig := 1 + rate*rootHold(cfg.flush, cfg.batch, rate).Seconds()
			if sigs := rate / perSig; sigs > bound {
				t.Errorf("flush %v batch %d: %.1f signatures/s at %.0f roots/s exceeds the bound %.1f",
					cfg.flush, cfg.batch, sigs, rate, bound)
			}
		}
		// From the fill rate up the hold is the interval and signatures are
		// amortized batch-fold, as with a fixed deadline.
		if got := rootHold(cfg.flush, cfg.batch, 2*fill); got != cfg.flush {
			t.Errorf("flush %v batch %d: hold %v at twice the fill rate", cfg.flush, cfg.batch, got)
		}
	}
}

func TestRootHoldRateWindow(t *testing.T) {
	const window = 50 * time.Millisecond
	r := rootRate{window: window, perSec: rateUnknown}
	t0 := time.Unix(100, 0)
	for i, s := range []struct {
		at       time.Duration
		enqueued int64
		want     float64
	}{
		{0, 1, rateUnknown},                          // first root: starts the first window
		{10 * time.Millisecond, 3, rateUnknown},      // inside it
		{49 * time.Millisecond, 9, rateUnknown},      // still inside
		{60 * time.Millisecond, 13, 200},             // 12 roots in 60 ms
		{100 * time.Millisecond, 40, 200},            // next window still open
		{160 * time.Millisecond, 63, 500},            // 50 roots in 100 ms
		{10160 * time.Millisecond, 64, 0.1},          // idle: one root in 10 s
		{10161 * time.Millisecond, 200, 0.1},         // a burst reads at the next window
		{10211 * time.Millisecond, 264, 200 / 0.051}, // which closes 51 ms on
	} {
		if got := r.sample(t0.Add(s.at), s.enqueued); math.Abs(got-s.want) > 1e-9*math.Abs(s.want) {
			t.Fatalf("sample %d at %v: rate %v, want %v", i, s.at, got, s.want)
		}
	}
}

// holdServer starts a server with one rohatgi stream (block size 4: every
// fourth publish hands the batch signer a root) and a subscriber.
func holdServer(t *testing.T, batch int, flush time.Duration) (*Server, *Subscriber, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	srv, err := New(Config{
		Signer:             crypto.NewSignerFromString("hold"),
		BatchSize:          batch,
		FlushInterval:      flush,
		MaxSubscriberQueue: 1 << 16,
		Metrics:            reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := srv.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.OpenStream(holdStream, func(signer crypto.Signer) (scheme.Scheme, error) {
		return testScheme(holdStream, signer)
	}); err != nil {
		t.Fatal(err)
	}
	return srv, sub, reg
}

const holdStream = 1 // rohatgi, block size 4

// publishRoots publishes n full blocks, pausing gap between them.
func publishRoots(t *testing.T, srv *Server, n int, gap time.Duration) {
	t.Helper()
	for b := 0; b < n; b++ {
		for i := 0; i < testBlockSize(holdStream); i++ {
			if err := srv.Publish(holdStream, []byte(fmt.Sprintf("b%d.%d", b, i))); err != nil {
				t.Fatal(err)
			}
		}
		if gap > 0 {
			time.Sleep(gap)
		}
	}
}

// awaitBlocks waits for the shard to have emitted n blocks.
func awaitBlocks(t *testing.T, reg *obs.Registry, n int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); reg.Counter("server.blocks").Value() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d blocks emitted", reg.Counter("server.blocks").Value(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// signaturePackets drains a closed subscription and counts root packets.
func signaturePackets(sub *Subscriber) int {
	n := 0
	for d := range sub.C() {
		if len(d.Packet.Signature) > 0 {
			n++
		}
	}
	return n
}

// An interval no run outlasts means "sign on count or on Close": the rate
// stays unmeasured, the hold stays the interval, and the flush counters
// are a function of the publish count alone — what internal/lab and the
// drain tests rely on.
func TestRootHoldHourIntervalSignsOnlyOnClose(t *testing.T) {
	const batch, roots = 8, 21
	srv, sub, reg := holdServer(t, batch, time.Hour)
	publishRoots(t, srv, roots, 0)
	awaitBlocks(t, reg, roots)
	time.Sleep(20 * time.Millisecond)
	if n := reg.Counter("server.batch_flush_deadline").Value(); n != 0 {
		t.Fatalf("%d deadline flushes before Close", n)
	}
	if got := reg.Gauge("server.root_hold_target_ns").Value(); got != time.Hour.Nanoseconds() {
		t.Fatalf("hold target %v, want the full interval", time.Duration(got))
	}
	if tot := srv.BatchTotals(); tot.Signatures != roots/batch || tot.SignedRoots != roots/batch*batch {
		t.Fatalf("before Close: %+v, want %d count-full signatures", tot, roots/batch)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if full, dl, drain := reg.Counter("server.batch_flush_full").Value(), reg.Counter("server.batch_flush_deadline").Value(),
		reg.Counter("server.batch_flush_drain").Value(); full != roots/batch || dl != 0 || drain != 1 {
		t.Fatalf("flushes full/deadline/drain = %d/%d/%d, want %d/0/1", full, dl, drain, roots/batch)
	}
	if tot := srv.BatchTotals(); tot.SignedRoots != roots || tot.Enqueued != roots {
		t.Fatalf("after Close: %+v, want all %d roots signed", tot, roots)
	}
	if got := signaturePackets(sub); got != roots {
		t.Fatalf("%d signature packets delivered, want %d", got, roots)
	}
}

// A publisher that fills batches faster than the interval keeps the
// amortization of a fixed deadline: the hold is the interval, the timer is
// re-armed by every count-full flush, and nearly every signature is a
// full batch.
func TestRootHoldSaturatedKeepsAmortization(t *testing.T) {
	const batch, roots = 16, 16 * 250
	srv, sub, reg := holdServer(t, batch, 50*time.Millisecond)
	done := make(chan int, 1)
	go func() { done <- signaturePackets(sub) }()
	publishRoots(t, srv, roots, 0)
	awaitBlocks(t, reg, roots)
	if got := reg.Gauge("server.root_hold_target_ns").Value(); got != (50 * time.Millisecond).Nanoseconds() {
		t.Errorf("saturated hold target %v, want the full interval", time.Duration(got))
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if ratio := srv.BatchTotals().AmortizationRatio(); ratio < 0.8*batch {
		t.Errorf("amortization %.1f under a saturating publisher, want >= %.1f (%+v)", ratio, 0.8*batch, srv.BatchTotals())
	}
	if got := <-done; got != roots {
		t.Errorf("%d signature packets delivered, want %d", got, roots)
	}
}

// A trickle — 125 roots/s against a 64-root, 80 ms ceiling — is signed
// after a hold of about an eighth of the interval once the rate is
// measured, not after the interval. One stall of this process holds every
// pending root for as long as it lasts, so the claim is on the best of
// three rounds; a hold that tracked the interval would fail them all.
func TestRootHoldTrickleStaysShort(t *testing.T) {
	const flush, gap, perRound = 80 * time.Millisecond, 8 * time.Millisecond, 100
	srv, sub, reg := holdServer(t, 64, flush)
	done := make(chan int, 1)
	go func() { done <- signaturePackets(sub) }()
	hist := reg.Histogram("server.root_hold_ns")
	// Cold start: the first window's roots wait out the full interval.
	publishRoots(t, srv, 30, gap)
	published := 30
	var p99s []time.Duration
	for round := 0; round < 3; round++ {
		before := hist.Data()
		publishRoots(t, srv, perRound, gap)
		published += perRound
		warm := hist.Data().DeltaFrom(before)
		if warm.Count < perRound*9/10 {
			t.Fatalf("%d roots signed while publishing %d", warm.Count, perRound)
		}
		p99s = append(p99s, time.Duration(warm.Quantile(0.99)))
		if p99s[round] < flush/2 {
			break
		}
	}
	if p99s[len(p99s)-1] >= flush/2 {
		t.Errorf("root hold p99 %v over three rounds at a trickle, want under %v", p99s, flush/2)
	}
	rate, target := reg.Gauge("server.root_rate_per_s").Value(), time.Duration(reg.Gauge("server.root_hold_target_ns").Value())
	if rate <= 0 || rate > 130 || target <= 0 || target > flush/4 {
		t.Errorf("gauges: %d roots/s, hold target %v; want a measured rate of at most 125 and a target under %v", rate, target, flush/4)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := <-done; got != published {
		t.Errorf("%d signature packets delivered, want %d", got, published)
	}
}

// Kill with a root pending and its timer armed: the loop is joined, the
// timer dies with it, and the root's signature packet is never delivered.
func TestRootHoldKillLeavesPendingRootUnsigned(t *testing.T) {
	const flush = 30 * time.Millisecond
	before := runtime.NumGoroutine()
	srv, sub, reg := holdServer(t, 64, flush)
	publishRoots(t, srv, 2, 0)
	awaitBlocks(t, reg, 2)
	srv.Kill()
	if tot := srv.BatchTotals(); tot.Enqueued != 2 || tot.Signatures != 0 {
		t.Fatalf("at Kill: %+v, want 2 roots pending and none signed", tot)
	}
	time.Sleep(3 * flush) // a surviving timer would fire in here
	if tot := srv.BatchTotals(); tot.Signatures != 0 {
		t.Fatalf("after Kill: %+v: a root was signed by a loop that should be gone", tot)
	}
	if got := signaturePackets(sub); got != 0 {
		t.Fatalf("%d signature packets delivered after Kill, want 0", got)
	}
	if n := reg.Counter("server.batch_flush_deadline").Value(); n != 0 {
		t.Fatalf("%d deadline flushes", n)
	}
	// Close joins the same way and signs the pending roots itself.
	srv2, sub2, _ := holdServer(t, 64, flush)
	publishRoots(t, srv2, 2, 0)
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := signaturePackets(sub2); got != 2 {
		t.Fatalf("%d signature packets delivered by Close, want 2", got)
	}
	closed := srv2.BatchTotals()
	time.Sleep(3 * flush)
	if tot := srv2.BatchTotals(); tot != closed || tot.SignedRoots != 2 {
		t.Fatalf("totals %+v at Close, %+v later: want both roots signed and nothing after", closed, tot)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after Kill and Close: a loop leaked", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
