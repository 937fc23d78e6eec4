package netsim

import (
	"bytes"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"mcauth/internal/catalog"
	"mcauth/internal/crypto"
	"mcauth/internal/delay"
	"mcauth/internal/fault"
	"mcauth/internal/obs"
	"mcauth/internal/scheme/emss"
	"mcauth/internal/scheme/rohatgi"
	"mcauth/internal/stats"
	"mcauth/internal/verifier"
)

// chaosEntries builds one instance of every catalogue scheme, each bound
// to the wiring netsim needs to drive it.
func chaosEntries(t *testing.T) []catalog.Entry {
	t.Helper()
	signer := crypto.NewSignerFromString("chaos")
	specs := map[string]catalog.Spec{
		"rohatgi":  {N: 12},
		"emss":     {N: 12, M: 2, D: 1},
		"augchain": {N: 12, A: 3, B: 3},
		"authtree": {N: 16},
		"signeach": {N: 8},
		"tesla": {
			N: 8, Lag: 2, Interval: 20 * time.Millisecond,
			Start: time.Unix(9000, 0), Seed: []byte("chaos"),
		},
	}
	var out []catalog.Entry
	for _, id := range catalog.IDs() {
		spec, ok := specs[id]
		if !ok {
			t.Fatalf("no chaos parameters for catalogue scheme %q", id)
		}
		spec.ID = id
		if spec.Interval == 0 {
			spec.Interval = 10 * time.Millisecond
		}
		if spec.Start.IsZero() {
			spec.Start = time.Unix(5000, 0)
		}
		e, err := catalog.Build(spec, signer)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

// TestChaosSoak is the robustness gate: every scheme runs under every fault
// preset under several seeds and must degrade gracefully — no panic, no
// fatal error, zero forged packets authenticated, buffers bounded by the
// configured cap, and the netsim counters must agree with the trace events.
func TestChaosSoak(t *testing.T) {
	const (
		rate        = 0.03
		maxBuffered = 24
	)
	seeds := []uint64{1, 2, 3}
	presetTotals := make(map[string]FaultTotals)
	for _, cs := range chaosEntries(t) {
		name := cs.Scheme.Name()
		for _, preset := range fault.PresetNames() {
			fc, err := fault.Preset(preset, rate)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range seeds {
				tracer := obs.NewSpanSink(obs.KeepAll, nil)
				reg := obs.NewRegistry()
				cfg := Config{
					Receivers:       8,
					Loss:            bern(t, 0.1),
					Delay:           delay.Constant{D: 5 * time.Millisecond},
					SendInterval:    cs.SendInterval,
					Start:           cs.Start,
					Seed:            seed,
					ReliableIndices: cs.Signature,
					SigRetransmits:  2,
					Faults:          &fc,
					MaxBuffered:     maxBuffered,
					Tracer:          tracer,
					Metrics:         reg,
				}
				res, err := Run(cs.Scheme, cfg, 1, testPayloads(cs.Scheme.BlockSize()))
				if err != nil {
					t.Fatalf("%s/%s seed %d: %v", name, preset, seed, err)
				}
				ft := res.FaultTotals()
				agg := presetTotals[preset]
				agg.Corrupted += ft.Corrupted
				agg.Truncated += ft.Truncated
				agg.Duplicated += ft.Duplicated
				agg.ForgedInjected += ft.ForgedInjected
				agg.ForgedRejected += ft.ForgedRejected
				agg.ForgedAuthenticated += ft.ForgedAuthenticated
				agg.InvalidDeliveries += ft.InvalidDeliveries
				presetTotals[preset] = agg
				// Security invariant: nothing forged ever authenticates.
				if ft.ForgedAuthenticated != 0 {
					t.Errorf("%s/%s seed %d: %d forged packets authenticated",
						name, preset, seed, ft.ForgedAuthenticated)
				}
				// Liveness: the adversary degrades but does not stop the
				// genuine stream.
				if res.TotalAuthenticated() == 0 {
					t.Errorf("%s/%s seed %d: nothing authenticated", name, preset, seed)
				}
				// Bounded memory: no verifier buffered past the cap.
				if hw := res.MaxBufferHighWater(); hw > maxBuffered {
					t.Errorf("%s/%s seed %d: buffer high water %d > cap %d",
						name, preset, seed, hw, maxBuffered)
				}
				checkTraceConsistency(t, name, preset, tracer, reg, res, ft)
			}
		}
	}
	// Each preset's headline fault must actually have fired somewhere in
	// the soak, or the run proved nothing.
	for preset, want := range map[string]func(FaultTotals) int{
		"corruption":  func(ft FaultTotals) int { return ft.Corrupted },
		"truncation":  func(ft FaultTotals) int { return ft.Truncated },
		"duplication": func(ft FaultTotals) int { return ft.Duplicated },
		"forgery":     func(ft FaultTotals) int { return ft.ForgedInjected },
	} {
		if got := want(presetTotals[preset]); got == 0 {
			t.Errorf("preset %s never injected its fault across the soak", preset)
		}
	}
}

// TestForgedBeforeGenuineIsRejected pins down the rejection path the soak
// cannot force: the injector emits a forgery alongside its surviving genuine
// twin, so by the time the forgery arrives the genuine packet has usually
// authenticated and the verifier absorbs the forgery as a duplicate index
// (safe, but not a rejection). Delivered *before* the genuine packet, a
// forgery must be rejected outright — and must not poison the genuine
// packet's later authentication.
func TestForgedBeforeGenuineIsRejected(t *testing.T) {
	signer := crypto.NewSignerFromString("s")
	s, err := rohatgi.New(4, signer)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := s.Authenticate(1, testPayloads(4))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.NewVerifier(verifier.Env{})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Unix(5000, 0)
	// The signature packet authenticates itself and yields the trusted
	// digest for index 2.
	if _, err := v.Ingest(pkts[0], at); err != nil {
		t.Fatal(err)
	}
	forger := fault.NewWrongKeyForger("attacker")
	forged := forger.Forge(stats.NewRNG(1), pkts[1])
	if forged == nil {
		t.Fatal("forger returned nil")
	}
	before := v.Stats()
	if _, err := v.Ingest(forged, at); err != nil {
		t.Fatal(err)
	}
	if got := v.Stats().Rejected - before.Rejected; got != 1 {
		t.Fatalf("forged-first ingest: rejected delta %d, want 1", got)
	}
	events, err := v.Ingest(pkts[1], at)
	if err != nil {
		t.Fatal(err)
	}
	authed := false
	for _, e := range events {
		if e.Index == pkts[1].Index && !fault.IsForgedPayload(e.Payload) {
			authed = true
		}
	}
	if !authed {
		t.Fatal("genuine packet failed to authenticate after its forgery was rejected")
	}
}

// checkTraceConsistency cross-checks the three books a run keeps: the
// per-receiver report counters, the metrics registry, and the trace events.
func checkTraceConsistency(t *testing.T, name, preset string, tracer *obs.SpanSink, reg *obs.Registry, res *Result, ft FaultTotals) {
	t.Helper()
	byType := make(map[obs.SpanKind]int)
	for _, e := range tracer.Snapshot() {
		byType[e.Kind]++
	}
	delivered := 0
	for i := range res.PerReceiver {
		delivered += res.PerReceiver[i].Delivered
	}
	checks := []struct {
		what    string
		events  int
		report  int
		counter int64
	}{
		{"delivered", byType[obs.SpanDelivered], delivered, reg.Counter("netsim.delivered").Value()},
		{"corrupted+truncated", byType[obs.SpanCorrupted], ft.Corrupted + ft.Truncated,
			reg.Counter("netsim.corrupted").Value() + reg.Counter("netsim.truncated").Value()},
		{"forged_injected", byType[obs.SpanForgedInjected], ft.ForgedInjected, reg.Counter("netsim.forged_injected").Value()},
		{"forged_rejected", byType[obs.SpanForgedRejected], ft.ForgedRejected, reg.Counter("netsim.forged_rejected").Value()},
	}
	for _, c := range checks {
		if c.events != c.report || int64(c.report) != c.counter {
			t.Errorf("%s/%s: %s books disagree: %d trace events, %d in report, %d in registry",
				name, preset, c.what, c.events, c.report, c.counter)
		}
	}
}

// TestChaosDeterministicBySeed pins the adversarial channel to the run
// seed: identical configuration must reproduce identical fault totals and
// outcomes.
func TestChaosDeterministicBySeed(t *testing.T) {
	fc, err := fault.Preset("forgery", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	fc.CorruptRate = 0.1
	fc.DuplicateRate = 0.1
	s, err := emss.New(emss.Config{N: 10, M: 2, D: 1}, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, 0.1, 6)
	cfg.ReliableIndices = []uint32{10}
	cfg.SigRetransmits = 2
	cfg.Faults = &fc
	run := func() (*Result, FaultTotals) {
		res, err := Run(s, cfg, 1, testPayloads(10))
		if err != nil {
			t.Fatal(err)
		}
		return res, res.FaultTotals()
	}
	resA, a := run()
	resB, b := run()
	if a != b {
		t.Fatalf("fault totals diverge across identical runs: %+v vs %+v", a, b)
	}
	if a.Corrupted == 0 || a.Duplicated == 0 || a.ForgedInjected == 0 {
		t.Fatalf("expected all fault kinds to fire, got %+v", a)
	}
	if resA.TotalAuthenticated() != resB.TotalAuthenticated() {
		t.Fatal("authentication outcomes diverge across identical runs")
	}
}

// TestFaultsDisabledMatchesBaseline is the regression guard for the "off
// means off" contract: a nil Faults config must not perturb a run in any
// observable way — same reports, same trace — as the same config with the
// fault layer never constructed.
func TestFaultsDisabledMatchesBaseline(t *testing.T) {
	s, err := rohatgi.New(8, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(faults *fault.Config) (*Result, []obs.Span) {
		tracer := obs.NewSpanSink(obs.KeepAll, nil)
		cfg := baseConfig(t, 0.2, 8)
		cfg.ReliableIndices = []uint32{1}
		cfg.Faults = faults
		cfg.Tracer = tracer
		res, err := Run(s, cfg, 1, testPayloads(8))
		if err != nil {
			t.Fatal(err)
		}
		// Receiver goroutines interleave their emissions arbitrarily; the
		// per-receiver event streams are the deterministic artifact, so
		// canonicalize by grouping on receiver (stable: preserves each
		// receiver's own order) before comparing.
		ev := tracer.Snapshot()
		sort.SliceStable(ev, func(i, j int) bool { return ev[i].Receiver < ev[j].Receiver })
		return res, ev
	}
	resNil, evNil := run(nil)
	// A non-nil but all-zero config is "not enabled" and must behave
	// identically to nil.
	resZero, evZero := run(&fault.Config{})
	if !reflect.DeepEqual(resNil, resZero) {
		t.Error("zero-valued fault config changed run results")
	}
	if !reflect.DeepEqual(evNil, evZero) {
		t.Error("zero-valued fault config changed the trace")
	}
}

// TestSigRetransmitsReplaceReliability checks the recovery mechanism: with
// retransmission enabled the reliable-delivery magic is off (the signature
// packet can genuinely be lost), the wire carries the extra copies, and
// under moderate loss the copies keep the authentication rate high.
func TestSigRetransmitsReplaceReliability(t *testing.T) {
	s, err := rohatgi.New(8, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(t, 0.3, 300)
	cfg.ReliableIndices = []uint32{1}
	cfg.SigRetransmits = 3
	res, err := Run(s, cfg, 1, testPayloads(8))
	if err != nil {
		t.Fatal(err)
	}
	if want := 8 + 3; res.WireCount != want {
		t.Fatalf("wire count %d, want %d (block + 3 signature copies)", res.WireCount, want)
	}
	// With p=0.3 and 4 total copies, a receiver misses the signature with
	// probability 0.3^4 ≈ 0.8%; some receivers in 300 should still lose it
	// (proving the magic is off) but the vast majority authenticate.
	sigLost, authed := 0, 0
	for i := range res.PerReceiver {
		rep := &res.PerReceiver[i]
		if !rep.Received(1) {
			sigLost++
		}
		if rep.Stats.Authenticated > 0 {
			authed++
		}
	}
	if sigLost == 0 {
		t.Error("no receiver ever lost the signature: reliability magic still on")
	}
	if ratio := float64(authed) / float64(len(res.PerReceiver)); ratio < 0.9 {
		t.Errorf("only %.0f%% of receivers authenticated anything; retransmits not recovering", 100*ratio)
	}
	// Duplicate signature copies are absorbed as duplicates, not errors.
	dups := 0
	for i := range res.PerReceiver {
		dups += res.PerReceiver[i].Stats.Duplicates
	}
	if dups == 0 {
		t.Error("retransmitted signatures produced no duplicate ingests")
	}
}

// TestChaosValidation covers the new Config fields' bounds.
func TestChaosValidation(t *testing.T) {
	good := baseConfig(t, 0.1, 2)
	bad := []func(Config) Config{
		func(c Config) Config { c.SigRetransmits = -1; return c },
		func(c Config) Config { c.SigRetransmits = maxSigRetransmits + 1; return c },
		func(c Config) Config { c.MaxBuffered = -1; return c },
		func(c Config) Config { c.Faults = &fault.Config{CorruptRate: 1.5}; return c },
	}
	for i, mutate := range bad {
		if err := mutate(good).Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	okCfg := good
	okCfg.SigRetransmits = 2
	okCfg.MaxBuffered = 16
	fc, err := fault.Preset("corruption", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	okCfg.Faults = &fc
	if err := okCfg.Validate(); err != nil {
		t.Errorf("valid chaos config rejected: %v", err)
	}
}

// TestTraceRoundTripEveryScheme is the writer/reader property of the one
// trace grammar: for every catalogue scheme, a seeded lossy, reordered and
// forged run written through the sink reads back with ReadSpans as the very
// records the sink kept, none skipped — and between them the runs exercise
// every simulator-side kind and every field only lifecycle records carry.
func TestTraceRoundTripEveryScheme(t *testing.T) {
	faults := fault.Config{CorruptRate: 0.1, TruncateRate: 0.1, DuplicateRate: 0.1, ForgeRate: 0.15, ReorderRate: 0.2}
	kinds := make(map[obs.SpanKind]int)
	var ooo, depth, root int
	for _, e := range chaosEntries(t) {
		var buf bytes.Buffer
		sink := obs.NewSpanSink(obs.KeepAll, &buf)
		cfg := Config{
			Receivers:       4,
			Loss:            bern(t, 0.15),
			Delay:           delay.Constant{D: 5 * time.Millisecond},
			SendInterval:    e.SendInterval,
			Start:           e.Start,
			Seed:            20261003,
			ReliableIndices: e.Signature,
			Faults:          &faults,
			MaxBuffered:     3,
			Workers:         1,
			Tracer:          sink,
		}
		if _, err := Run(e.Scheme, cfg, 1, testPayloads(e.Scheme.BlockSize())); err != nil {
			t.Fatalf("%s: %v", e.Scheme.Name(), err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		got, skipped, err := obs.ReadSpans(&buf)
		if err != nil || skipped != 0 {
			t.Fatalf("%s: ReadSpans skipped %d lines, err %v", e.Scheme.Name(), skipped, err)
		}
		if want := sink.Snapshot(); !slices.Equal(got, want) {
			t.Errorf("%s: %d records read back differ from the %d written", e.Scheme.Name(), len(got), len(want))
		}
		for _, s := range got {
			kinds[s.Kind]++
			if s.OutOfOrder {
				ooo++
			}
			if s.Depth > 0 {
				depth++
			}
			if s.Root > 0 {
				root++
			}
		}
	}
	for _, k := range []obs.SpanKind{
		obs.SpanRunMeta, obs.SpanSent, obs.SpanDropped, obs.SpanDelivered,
		obs.SpanCorrupted, obs.SpanForgedInjected, obs.SpanForgedRejected,
		obs.SpanMsgBuffered, obs.SpanHashBuffered, obs.SpanOverflowDropped,
		obs.SpanAuthenticate, obs.SpanReject, obs.SpanUnsafe,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %s record in any scheme's run", k)
		}
	}
	if ooo == 0 || depth == 0 || root == 0 {
		t.Errorf("fields not exercised: %d ooo, %d depth, %d root records", ooo, depth, root)
	}
}
