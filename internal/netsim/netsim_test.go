package netsim

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/delay"
	"mcauth/internal/depgraph"
	"mcauth/internal/loss"
	"mcauth/internal/obs"
	"mcauth/internal/scheme/augchain"
	"mcauth/internal/scheme/authtree"
	"mcauth/internal/scheme/emss"
	"mcauth/internal/scheme/rohatgi"
	"mcauth/internal/scheme/tesla"
	"mcauth/internal/stats"
)

func bern(t *testing.T, p float64) loss.Model {
	t.Helper()
	m, err := loss.NewBernoulli(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func baseConfig(t *testing.T, p float64, receivers int) Config {
	t.Helper()
	return Config{
		Receivers:    receivers,
		Loss:         bern(t, p),
		Delay:        delay.Constant{D: 5 * time.Millisecond},
		SendInterval: 10 * time.Millisecond,
		Start:        time.Unix(5000, 0),
		Seed:         42,
	}
}

func TestConfigValidation(t *testing.T) {
	good := baseConfig(t, 0.1, 2)
	bad := []func(Config) Config{
		func(c Config) Config { c.Receivers = 0; return c },
		func(c Config) Config { c.Loss = nil; return c },
		func(c Config) Config { c.Delay = nil; return c },
		func(c Config) Config { c.SendInterval = 0; return c },
	}
	for i, mutate := range bad {
		if err := mutate(good).Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	s, err := rohatgi.New(4, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(s, mutateReceivers(good, 0), 1, testPayloads(4)); err == nil {
		t.Error("invalid config should fail Run")
	}
	if _, err := Run(nil, good, 1, testPayloads(4)); err == nil {
		t.Error("nil scheme should fail Run")
	}
}

func mutateReceivers(c Config, n int) Config {
	c.Receivers = n
	return c
}

func TestDeterministicBySeed(t *testing.T) {
	s, err := emss.New(emss.Config{N: 10, M: 2, D: 1}, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, 0.3, 20)
	a, err := Run(s, cfg, 1, testPayloads(10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(s, cfg, 1, testPayloads(10))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalAuthenticated() != b.TotalAuthenticated() {
		t.Error("same seed must reproduce the run")
	}
	cfg.Seed = 43
	c, err := Run(s, cfg, 1, testPayloads(10))
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalAuthenticated() == c.TotalAuthenticated() &&
		equalRatios(a.AuthRatioByIndex(), c.AuthRatioByIndex()) {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func equalRatios(a, b map[uint32]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func TestNoLossEverythingVerifies(t *testing.T) {
	s, err := emss.New(emss.Config{N: 20, M: 2, D: 1}, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, 0, 10)
	res, err := Run(s, cfg, 1, testPayloads(20))
	if err != nil {
		t.Fatal(err)
	}
	for r, rep := range res.PerReceiver {
		if rep.Stats.Authenticated != 20 {
			t.Errorf("receiver %d authenticated %d, want 20", r, rep.Stats.Authenticated)
		}
		if rep.Lost != 0 {
			t.Errorf("receiver %d lost %d with p=0", r, rep.Lost)
		}
	}
}

func TestHeavyJitterReorderingStillVerifies(t *testing.T) {
	// With no loss but jitter comparable to the whole block duration,
	// packets arrive wildly out of order; the verifier must still
	// authenticate everything.
	s, err := emss.New(emss.Config{N: 15, M: 2, D: 1}, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := delay.NewGaussian(100*time.Millisecond, 80*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, 0, 10)
	cfg.Delay = g
	res, err := Run(s, cfg, 1, testPayloads(15))
	if err != nil {
		t.Fatal(err)
	}
	for r, rep := range res.PerReceiver {
		if rep.Stats.Authenticated != 15 {
			t.Errorf("receiver %d authenticated %d, want 15", r, rep.Stats.Authenticated)
		}
	}
}

func TestReliableIndicesHonored(t *testing.T) {
	s, err := rohatgi.New(6, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, 0.9, 50)
	cfg.ReliableIndices = []uint32{1}
	res, err := Run(s, cfg, 1, testPayloads(6))
	if err != nil {
		t.Fatal(err)
	}
	for r, rep := range res.PerReceiver {
		if !rep.ReceivedByIndex[1] {
			t.Errorf("receiver %d lost the reliable signature packet", r)
		}
	}
}

func TestRohatgiMeasuredMatchesClosedForm(t *testing.T) {
	n, p := 10, 0.2
	s, err := rohatgi.New(n, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, p, 3000)
	cfg.ReliableIndices = []uint32{1}
	res, err := Run(s, cfg, 1, testPayloads(n))
	if err != nil {
		t.Fatal(err)
	}
	// In Rohatgi send order equals the analytic chain order, and the closed
	// form is q_i = (1-p)^(i-2): every packet between P_i and the signature
	// packet survives.
	for i := 2; i <= n; i++ {
		received, verified := res.Counts(uint32(i))
		iv, err := stats.WilsonInterval(verified, received, 0.9999)
		if err != nil {
			t.Fatal(err)
		}
		if want := math.Pow(1-p, float64(i-2)); !iv.Contains(want) {
			t.Errorf("packet %d: analytic %v outside measured CI %+v", i, want, iv)
		}
	}
}

func TestEMSSMeasuredMatchesMarkovExact(t *testing.T) {
	n, p := 12, 0.3
	s, err := emss.New(emss.Config{N: n, M: 2, D: 1}, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, p, 3000)
	cfg.ReliableIndices = []uint32{uint32(n)} // signature packet
	res, err := Run(s, cfg, 1, testPayloads(n))
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	exact, err := g.ExactAuthProbDelivery(depgraph.Delivery{Channel: loss.Bernoulli{P: p}.Channel(), Root: depgraph.Conditioned})
	if err != nil {
		t.Fatal(err)
	}
	for send := 1; send < n; send++ {
		received, verified := res.Counts(uint32(send))
		iv, err := stats.WilsonInterval(verified, received, 0.9999)
		if err != nil {
			t.Fatal(err)
		}
		if !iv.Contains(exact.Q[send]) {
			t.Errorf("packet %d: exact %v outside measured CI %+v", send, exact.Q[send], iv)
		}
	}
}

func TestAugChainSurvivesBurstEndToEnd(t *testing.T) {
	cfg := baseConfig(t, 0, 100)
	burst, err := loss.NewSingleBurst(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Loss = burst
	s, err := augchain.New(augchain.Config{N: 21, A: 3, B: 3}, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.ReliableIndices = []uint32{21}
	res, err := Run(s, cfg, 1, testPayloads(21))
	if err != nil {
		t.Fatal(err)
	}
	for r, rep := range res.PerReceiver {
		// Every received packet must verify: a single burst of b+1
		// never disconnects C_{3,3}.
		if rep.Stats.Authenticated != rep.Delivered {
			t.Errorf("receiver %d verified %d of %d received",
				r, rep.Stats.Authenticated, rep.Delivered)
		}
	}
}

func TestAuthTreeImmuneToLoss(t *testing.T) {
	s, err := authtree.New(16, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, 0.5, 200)
	res, err := Run(s, cfg, 1, testPayloads(16))
	if err != nil {
		t.Fatal(err)
	}
	for r, rep := range res.PerReceiver {
		if rep.Stats.Authenticated != rep.Delivered {
			t.Errorf("receiver %d verified %d of %d", r, rep.Stats.Authenticated, rep.Delivered)
		}
	}
}

func TestTESLAMeasuredMatchesEquation7(t *testing.T) {
	// Gaussian delay with mu = 0.5*TDisc, sigma = 0.25*TDisc; loss 0.2.
	// Measured min-ratio over data packets ≈ (1-p) * Phi((TDisc-mu)/sigma).
	n, lag := 8, 2
	interval := 100 * time.Millisecond
	tDisc := time.Duration(lag) * interval
	mu := tDisc / 2
	sigma := tDisc / 4
	p := 0.2
	cfgT := tesla.Config{
		N:        n,
		Lag:      lag,
		Interval: interval,
		Start:    time.Unix(9000, 0),
		Seed:     []byte("seed"),
	}
	s, err := tesla.New(cfgT, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	gauss, err := delay.NewGaussian(mu, sigma)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Receivers:       4000,
		Loss:            bern(t, p),
		Delay:           gauss,
		SendInterval:    interval,
		Start:           cfgT.Start,
		Seed:            7,
		ReliableIndices: []uint32{1}, // bootstrap
	}
	res, err := Run(s, cfg, 1, testPayloads(n))
	if err != nil {
		t.Fatal(err)
	}
	// Equation (6): q_i = λ_i·ξ, with λ_i = 1 - p^(n+1-i) (some later packet
	// discloses the key) and ξ = Φ((T_disc-μ)/σ) (the packet beats its key's
	// disclosure).
	xi := stats.NormalCDF(tDisc.Seconds(), mu.Seconds(), sigma.Seconds())
	for i := 1; i <= n; i++ {
		ratios := res.AuthRatioByIndex()
		got := ratios[tesla.DataWireIndex(i)]
		if want := (1 - math.Pow(p, float64(n+1-i))) * xi; math.Abs(got-want) > 0.04 {
			t.Errorf("data %d: measured %v vs analytic %v", i, got, want)
		}
	}
	qmin, err := tesla.QMin(p, tDisc.Seconds(), mu.Seconds(), sigma.Seconds())
	if err != nil {
		t.Fatal(err)
	}
	indices := make([]uint32, n)
	for i := range indices {
		indices[i] = tesla.DataWireIndex(i + 1)
	}
	if got := res.MinAuthRatio(indices); math.Abs(got-qmin) > 0.04 {
		t.Errorf("min ratio %v vs analytic qmin %v", got, qmin)
	}
}

func TestTraceRoundTripMatchesStats(t *testing.T) {
	// A traced run written to JSONL and read back must agree with the
	// result's counters: per-receiver authenticated events == each
	// receiver's Stats.Authenticated, and delivered+dropped == wire
	// count per receiver.
	s, err := emss.New(emss.Config{N: 12, M: 2, D: 1}, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tracer := obs.NewSpanSink(0, &buf)
	reg := obs.NewRegistry()
	cfg := baseConfig(t, 0.3, 8)
	cfg.Tracer = tracer
	cfg.Metrics = reg
	res, err := Run(s, cfg, 1, testPayloads(12))
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	events, skipped, err := obs.ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("trace has %d undecodable lines", skipped)
	}
	authed := make(map[int]int)
	delivered := make(map[int]int)
	dropped := make(map[int]int)
	sent := 0
	for _, e := range events {
		switch e.Kind {
		case obs.SpanSent:
			if e.Receiver != 0 {
				t.Errorf("sent record attributed to receiver %d", e.Receiver)
			}
			sent++
		case obs.SpanAuthenticate:
			authed[e.Receiver]++
		case obs.SpanDelivered:
			delivered[e.Receiver]++
		case obs.SpanDropped:
			dropped[e.Receiver]++
			if e.Reason != "loss" && e.Reason != "late_join" {
				t.Errorf("drop reason %q", e.Reason)
			}
		}
	}
	if sent != res.WireCount {
		t.Errorf("sent events %d, want wire count %d", sent, res.WireCount)
	}
	for r, rep := range res.PerReceiver {
		if authed[r] != rep.Stats.Authenticated {
			t.Errorf("receiver %d: %d authenticated events, Stats.Authenticated %d",
				r, authed[r], rep.Stats.Authenticated)
		}
		if delivered[r] != rep.Delivered {
			t.Errorf("receiver %d: %d delivered events, report %d", r, delivered[r], rep.Delivered)
		}
		if dropped[r] != rep.Lost {
			t.Errorf("receiver %d: %d dropped events, report %d", r, dropped[r], rep.Lost)
		}
	}

	snap := reg.Snapshot()
	if got := snap.Counters["verifier.authenticated"]; got != int64(res.TotalAuthenticated()) {
		t.Errorf("metrics verifier.authenticated = %d, want %d", got, res.TotalAuthenticated())
	}
	if got := snap.Counters["netsim.sent"]; got != int64(res.WireCount) {
		t.Errorf("metrics netsim.sent = %d, want %d", got, res.WireCount)
	}
	tta := snap.Histograms["verifier.time_to_auth_ns"]
	if tta.Count != int64(res.TotalAuthenticated()) {
		t.Errorf("time-to-auth histogram count %d, want %d", tta.Count, res.TotalAuthenticated())
	}
}

func TestTracerOffEmitsNothing(t *testing.T) {
	// The nil-tracer hot path must not leak events anywhere: run the
	// same simulation with and without observability and require
	// identical results.
	s, err := emss.New(emss.Config{N: 10, M: 2, D: 1}, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, 0.3, 6)
	plain, err := Run(s, cfg, 1, testPayloads(10))
	if err != nil {
		t.Fatal(err)
	}
	mem := obs.NewSpanSink(obs.KeepAll, nil)
	cfg.Tracer = mem
	cfg.Metrics = obs.NewRegistry()
	traced, err := Run(s, cfg, 1, testPayloads(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(mem.Snapshot()) == 0 {
		t.Fatal("traced run emitted no events")
	}
	if plain.TotalAuthenticated() != traced.TotalAuthenticated() {
		t.Error("observability changed simulation outcome")
	}
	if !equalRatios(plain.AuthRatioByIndex(), traced.AuthRatioByIndex()) {
		t.Error("observability changed per-index ratios")
	}
}

// TestTimeToAuthMatchesRegistry: the run's merged receiver-delay histogram
// is every receiver verifier's TimeToAuth, so it must equal what the same
// verifiers observed into the registry's verifier.time_to_auth_ns — count,
// sum, extrema and every bucket — for all six schemes, over several chunks
// of receivers on several workers. TESLA's bootstrap authentication counts
// in both.
func TestTimeToAuthMatchesRegistry(t *testing.T) {
	g, err := delay.NewGaussian(30*time.Millisecond, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range chaosEntries(t) {
		reg := obs.NewRegistry()
		cfg := Config{
			Receivers:       2*receiverChunk + 44,
			Loss:            bern(t, 0.2),
			Delay:           g,
			SendInterval:    e.SendInterval,
			Start:           e.Start,
			Seed:            11,
			ReliableIndices: e.Signature,
			Workers:         3,
			Metrics:         reg,
		}
		res, err := Run(e.Scheme, cfg, 1, testPayloads(e.Scheme.BlockSize()))
		if err != nil {
			t.Fatalf("%s: %v", e.Scheme.Name(), err)
		}
		want := reg.Histogram("verifier.time_to_auth_ns").Data()
		if want.Count == 0 {
			t.Fatalf("%s: nothing authenticated; the comparison is vacuous", e.Scheme.Name())
		}
		if res.TimeToAuth != want {
			t.Errorf("%s: Result.TimeToAuth count %d sum %d [%d, %d], registry count %d sum %d [%d, %d] (buckets equal: %v)",
				e.Scheme.Name(), res.TimeToAuth.Count, res.TimeToAuth.Sum, res.TimeToAuth.MinSeen, res.TimeToAuth.MaxSeen,
				want.Count, want.Sum, want.MinSeen, want.MaxSeen, res.TimeToAuth.Buckets == want.Buckets)
		}
		if got := int64(res.TotalAuthenticated()); res.TimeToAuth.Count != got {
			t.Errorf("%s: %d latencies for %d authenticated packets", e.Scheme.Name(), res.TimeToAuth.Count, got)
		}
	}
}

// TestReceiverChunksWorkerInvariant: receivers are simulated in fixed chunks
// whatever the worker count, so at receiver counts around the chunk size
// every report and the merged TimeToAuth are identical at 1, 2 and 8
// workers, flat and overlay. Every receiver's per-index rows are
// capacity-clipped slices of one run-wide array, so none can grow into its
// neighbour's.
func TestReceiverChunksWorkerInvariant(t *testing.T) {
	const n = 12
	g, err := delay.NewGaussian(40*time.Millisecond, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]func(cfg Config) (*Result, error){
		"flat": func(cfg Config) (*Result, error) {
			return Run(overlayScheme(t, n), cfg, 1, testPayloads(n))
		},
		"overlay": func(cfg Config) (*Result, error) {
			s, base, ocfg := lossyOverlay(t, true)
			base.Receivers, base.Workers, base.Delay, base.LateJoiners = cfg.Receivers, cfg.Workers, cfg.Delay, cfg.LateJoiners
			res, err := RunOverlay(s, base, ocfg, 1, testPayloads(n))
			if err != nil {
				return nil, err
			}
			return &res.Result, nil
		},
	}
	for name, run := range runs {
		for _, receivers := range []int{1, receiverChunk - 1, receiverChunk, receiverChunk + 1, 300} {
			var base *Result
			for _, workers := range []int{1, 2, 8} {
				cfg := baseConfig(t, 0.2, receivers)
				cfg.ReliableIndices = []uint32{n}
				cfg.Delay = g
				cfg.LateJoiners = receivers / 10
				cfg.Workers = workers
				got, err := run(cfg)
				if err != nil {
					t.Fatalf("%s receivers=%d workers=%d: %v", name, receivers, workers, err)
				}
				for r := range got.PerReceiver {
					rep := &got.PerReceiver[r]
					if cap(rep.ReceivedByIndex) != len(rep.ReceivedByIndex) || cap(rep.VerifiedByIndex) != len(rep.VerifiedByIndex) {
						t.Fatalf("%s receiver %d: rows of len %d/%d have cap %d/%d", name, r,
							len(rep.ReceivedByIndex), len(rep.VerifiedByIndex), cap(rep.ReceivedByIndex), cap(rep.VerifiedByIndex))
					}
				}
				if base == nil {
					if got.TimeToAuth.Count == 0 {
						t.Fatalf("%s receivers=%d: nothing authenticated", name, receivers)
					}
					base = got
					continue
				}
				if !reflect.DeepEqual(got.PerReceiver, base.PerReceiver) {
					t.Errorf("%s receivers=%d workers=%d: receiver reports differ from workers=1", name, receivers, workers)
				}
				if got.TimeToAuth != base.TimeToAuth {
					t.Errorf("%s receivers=%d workers=%d: TimeToAuth differs from workers=1", name, receivers, workers)
				}
			}
		}
	}
}

func TestReportAccessors(t *testing.T) {
	rep := ReceiverReport{
		ReceivedByIndex: []bool{false, true, false},
		VerifiedByIndex: []bool{false, true, false},
	}
	if !rep.Received(1) || !rep.Verified(1) {
		t.Error("index 1 should be received and verified")
	}
	if rep.Received(2) || rep.Verified(2) {
		t.Error("index 2 should be absent")
	}
	if rep.Received(99) || rep.Verified(99) {
		t.Error("out-of-range index must report false, not panic")
	}
}

func TestLatencyMeasurement(t *testing.T) {
	// Signature-first chain, in-order delivery: zero authentication
	// latency for every packet.
	s, err := rohatgi.New(8, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, 0, 5)
	res, err := Run(s, cfg, 1, testPayloads(8))
	if err != nil {
		t.Fatal(err)
	}
	if tta := res.TimeToAuth; tta.Count == 0 || tta.MaxSeen != 0 {
		t.Fatalf("rohatgi: %d latencies, max %v, want some, all 0", tta.Count, time.Duration(tta.MaxSeen))
	}
	// Signature-last EMSS: the first packet waits for the signature, so
	// some latencies must be positive.
	s2, err := emss.New(emss.Config{N: 8, M: 2, D: 1}, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(s2, cfg, 1, testPayloads(8))
	if err != nil {
		t.Fatal(err)
	}
	if res2.TimeToAuth.MaxSeen <= 0 {
		t.Error("signature-last scheme should show positive auth latency")
	}
}

// testPayloads builds n distinct payloads. It mirrors schemetest.Payloads,
// which in-package tests cannot use: schemetest drives netsim (its
// corruption sweep), so importing it here would close an import cycle.
func testPayloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("payload-%03d", i))
	}
	return out
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	s, err := emss.New(emss.Config{N: 12, M: 2, D: 1}, crypto.NewSignerFromString("w"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Result {
		t.Helper()
		cfg := baseConfig(t, 0.3, 25)
		cfg.Workers = workers
		res, err := Run(s, cfg, 1, testPayloads(12))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if got.TotalAuthenticated() != base.TotalAuthenticated() ||
			!equalRatios(got.AuthRatioByIndex(), base.AuthRatioByIndex()) {
			t.Errorf("run with %d workers differs from sequential run", workers)
		}
	}

	cfg := baseConfig(t, 0.3, 5)
	cfg.Workers = -1
	if _, err := Run(s, cfg, 1, testPayloads(12)); err == nil {
		t.Error("negative Workers should fail validation")
	}
}
