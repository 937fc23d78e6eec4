package server

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
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

func TestRootHoldFillTarget(t *testing.T) {
	const flush, batch = 50 * time.Millisecond, 64
	for _, c := range []struct {
		name string
		rate float64
		want int
	}{
		{"unknown rate waits for a full batch", rateUnknown, batch},
		{"no arrivals, nothing to wait for", 0, 1},
		{"serve_paced: 187 roots/s", 187, 3},
		{"the rate that just fills the batch", 1280, batch},
		{"saturated", 50000, batch},
	} {
		if got := fillTarget(flush, batch, c.rate); got != c.want {
			t.Errorf("%s: fill target %d, want %d", c.name, got, c.want)
		}
	}
	// Never above the batch, and never short of the roots the hold waits
	// for: a batch the target closes spends no more than one the hold
	// closes.
	for _, cfg := range []struct {
		flush time.Duration
		batch int
	}{{flush, batch}, {10 * time.Millisecond, 1}, {30 * time.Millisecond, 512}, {time.Hour, 64}} {
		for rate := 0.0; rate < 1e6; rate = rate*1.3 + 0.01 {
			got := fillTarget(cfg.flush, cfg.batch, rate)
			waits := 1 + rate*rootHold(cfg.flush, cfg.batch, rate).Seconds()
			if got < 1 || got > cfg.batch || (got < cfg.batch && float64(got) < waits) {
				t.Fatalf("flush %v batch %d: fill target %d at %.2f roots/s, the hold waits for %.2f roots",
					cfg.flush, cfg.batch, got, rate, waits)
			}
		}
	}
}

// simulateHold plays the signer loop's rule — rate measured at each
// batch's first root, then a hold and a fill target from it — over root
// arrival offsets in virtual time, and returns how many signatures it
// spends.
func simulateHold(arrivals []time.Duration, flush time.Duration, batch int) int {
	t0 := time.Unix(0, 0)
	rate := rootRate{window: flush, perSec: rateUnknown}
	var (
		sigs, pending, fill int
		deadline            time.Duration
	)
	for i, at := range arrivals {
		if pending > 0 && at >= deadline {
			sigs, pending = sigs+1, 0
		}
		pending++
		if pending == 1 {
			perSec := rate.sample(t0.Add(at), int64(i+1))
			deadline = at + rootHold(flush, batch, perSec)
			fill = fillTarget(flush, batch, perSec)
		}
		if pending >= fill {
			sigs, pending = sigs+1, 0
		}
	}
	if pending > 0 {
		sigs++
	}
	return sigs
}

// The spend bound under real arrival patterns rather than the fluid model:
// Poisson arrivals, and the bursts a round-robin publisher makes when six
// streams complete their blocks one after another, over the rate sweep of
// TestRootHoldSignatureRateBound. A batch the target closes early lets the
// next one start sooner, so this is the bound the fill target must keep.
func TestRootHoldFillTargetSignatureRateBound(t *testing.T) {
	const roots, streams = 3000, 6
	rng := rand.New(rand.NewSource(40))
	arrivals := make([]time.Duration, roots)
	poisson := func(rate float64) {
		at := 0.0
		for i := range arrivals {
			at += rng.ExpFloat64() / rate
			arrivals[i] = time.Duration(at * 1e9)
		}
	}
	// One burst per period, each starting up to a quarter period late, its
	// roots a 48th of the period apart.
	bursts := func(rate float64) {
		period, start := streams/rate, 0.0
		for i := range arrivals {
			if i%streams == 0 {
				start = float64(i/streams)*period + rng.Float64()*period/4
			}
			arrivals[i] = time.Duration((start + float64(i%streams)*period/48) * 1e9)
		}
	}
	for _, cfg := range []struct {
		flush time.Duration
		batch int
	}{{50 * time.Millisecond, 64}, {30 * time.Millisecond, 16}, {100 * time.Millisecond, 1024}, {20 * time.Millisecond, 1}} {
		bound := math.Sqrt(float64(cfg.batch)) / cfg.flush.Seconds()
		fill := float64(cfg.batch) / cfg.flush.Seconds()
		worst := 0.0
		for rate := 0.01; rate < fill; rate *= 1.05 {
			for _, arrive := range []struct {
				name string
				gen  func(float64)
			}{{"poisson", poisson}, {"round-robin bursts", bursts}} {
				arrive.gen(rate)
				span := (arrivals[roots-1] - arrivals[0]).Seconds()
				sigs := float64(simulateHold(arrivals, cfg.flush, cfg.batch)) / span
				if sigs > bound {
					t.Errorf("flush %v batch %d, %s at %.1f roots/s: %.1f signatures/s exceeds the bound %.1f",
						cfg.flush, cfg.batch, arrive.name, rate, sigs, bound)
				}
				worst = max(worst, sigs/bound)
			}
		}
		t.Logf("flush %v batch %d: worst spend %.2f of the bound", cfg.flush, cfg.batch, worst)
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
	if got := reg.Counter("server.blocks").Value(); got != roots {
		t.Fatalf("%d of %d blocks emitted when Publish returned", got, roots)
	}
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
	if got := reg.Counter("server.blocks").Value(); got != roots {
		t.Fatalf("%d of %d blocks emitted when Publish returned", got, roots)
	}
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

// A round-robin publisher over six streams completes their blocks one
// after another: 190 roots/s, but in bursts of six a period of 32 ms
// apart. The hold, sized for evenly spread arrivals, is 7.4 ms; the burst
// is in long before that, so its batches close at the fill target of 3
// and roots barely wait, at an amortization of about 3. As in the trickle
// test, a stall of this process holds every pending root, so the claim is
// on the best of three rounds; a hold that ignored the fill would fail
// them all.
func TestRootHoldBurstClosesAtFillTarget(t *testing.T) {
	const flush, streams, rate, perRound = 50 * time.Millisecond, 6, 190, 20
	srv, sub, reg := holdServer(t, 64, flush)
	ids := []uint64{holdStream}
	for id := uint64(holdStream + 4); len(ids) < streams; id += 4 { // rohatgi too
		if err := srv.OpenStream(id, func(signer crypto.Signer) (scheme.Scheme, error) {
			return testScheme(id, signer)
		}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	done := make(chan int, 1)
	go func() { done <- signaturePackets(sub) }()
	period := time.Second * streams / rate
	next, published := time.Now(), 0
	burst := func(n int) {
		for b := 0; b < n; b++ {
			for i := 0; i < testBlockSize(holdStream); i++ {
				for _, id := range ids {
					if err := srv.Publish(id, []byte(fmt.Sprintf("b%d.%d", published, i))); err != nil {
						t.Fatal(err)
					}
				}
			}
			published += streams
			next = next.Add(period)
			time.Sleep(time.Until(next))
		}
	}
	// Cold start: the first window's roots wait out the full interval.
	burst(6)
	hist := reg.Histogram("server.root_hold_ns")
	var p50s []time.Duration
	var ratios []float64
	for round := 0; round < 3; round++ {
		before, tot0 := hist.Data(), srv.BatchTotals()
		burst(perRound)
		warm, tot := hist.Data().DeltaFrom(before), srv.BatchTotals()
		p50s = append(p50s, time.Duration(warm.Quantile(0.5)))
		ratios = append(ratios, float64(tot.SignedRoots-tot0.SignedRoots)/float64(max(tot.Signatures-tot0.Signatures, 1)))
		if p50s[round] <= flush/20 && ratios[round] >= 2 {
			break
		}
	}
	if last := len(p50s) - 1; p50s[last] > flush/20 || ratios[last] < 2 {
		t.Errorf("root hold p50 %v, amortization %.2f over three rounds of bursts; want p50 <= %v and amortization >= 2",
			p50s, ratios, flush/20)
	}
	if fill := reg.Gauge("server.batch_fill_target").Value(); fill < 2 || fill > 4 {
		t.Errorf("fill target %d at about %d roots/s, want 3 (2 to 4 as the measured rate wanders)", fill, rate)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := <-done; got != published {
		t.Errorf("%d signature packets delivered, want %d", got, published)
	}
}

// A quiet daemon's rate gauge is not a cold one's: one root after more
// than a second of silence is a measured rate under one root a second,
// and the gauge reads it rounded up, not 0, which means "not measured".
func TestRootHoldRateGaugeReadsQuietRate(t *testing.T) {
	const batch = 64
	srv, sub, reg := holdServer(t, batch, 20*time.Millisecond)
	rate, fill := reg.Gauge("server.root_rate_per_s"), reg.Gauge("server.batch_fill_target")
	publishRoots(t, srv, 1, 1200*time.Millisecond)
	if r, f := rate.Value(), fill.Value(); r != 0 || f != batch {
		t.Fatalf("before the first measurement: %d roots/s, fill target %d; want 0 and %d", r, f, batch)
	}
	publishRoots(t, srv, 1, 0)
	for deadline := time.Now().Add(2 * time.Second); rate.Value() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if r, f := rate.Value(), fill.Value(); r < 1 || f != 2 {
		t.Errorf("one root after 1.2 s idle: %d roots/s, fill target %d; want at least 1 and 2", r, f)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := signaturePackets(sub); got != 2 {
		t.Errorf("%d signature packets delivered, want 2", got)
	}
}

// The flusher pads partial blocks in stream ID order, whatever order the
// streams were opened in, so the batch their roots join, and the order in
// which its signature releases their blocks, repeat run to run.
func TestFlusherPadsInStreamOrder(t *testing.T) {
	var now atomic.Int64 // virtual clock, unix ns
	srv, err := New(Config{
		Signer:        crypto.NewSignerFromString("order"),
		FlushInterval: 10 * time.Millisecond,
		Clock:         func() time.Time { return time.Unix(0, now.Load()) },
		Metrics:       obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := srv.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	ids := []uint64{29, 9, 21, 1, 25, 13, 17, 5} // rohatgi, opened out of order
	for _, id := range ids {
		if err := srv.OpenStream(id, func(signer crypto.Signer) (scheme.Scheme, error) {
			return testScheme(id, signer)
		}); err != nil {
			t.Fatal(err)
		}
		if err := srv.Publish(id, []byte("partial")); err != nil {
			t.Fatal(err)
		}
	}
	// Every partial block falls due at once, so one tick pads them all.
	now.Store(time.Hour.Nanoseconds())
	blocks := srv.cfg.Metrics.Counter("server.blocks")
	for deadline := time.Now().Add(2 * time.Second); blocks.Value() < int64(len(ids)); {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d partial blocks padded by the flusher", blocks.Value(), len(ids))
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var order []uint64
	for d := range sub.C() {
		if len(d.Packet.Signature) > 0 {
			order = append(order, d.StreamID)
		}
	}
	want := slices.Clone(ids)
	slices.Sort(want)
	if !slices.Equal(order, want) {
		t.Errorf("signed blocks released in stream order %v, want %v", order, want)
	}
}

// Kill with a root pending and its timer armed: the loop is joined, the
// timer dies with it, and the root's signature packet is never delivered.
func TestRootHoldKillLeavesPendingRootUnsigned(t *testing.T) {
	const flush = 30 * time.Millisecond
	before := runtime.NumGoroutine()
	srv, sub, reg := holdServer(t, 64, flush)
	publishRoots(t, srv, 2, 0)
	if got := reg.Counter("server.blocks").Value(); got != 2 {
		t.Fatalf("%d of %d blocks emitted when Publish returned", got, 2)
	}
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
