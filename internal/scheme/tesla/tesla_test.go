package tesla

import (
	"math"
	"slices"
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/depgraph"
	"mcauth/internal/packet"
	"mcauth/internal/scheme"
	"mcauth/internal/schemetest"
	"mcauth/internal/stats"
	"mcauth/internal/verifier"
)

func testConfig(n, lag int) Config {
	return Config{
		N:        n,
		Lag:      lag,
		Interval: 100 * time.Millisecond,
		Start:    time.Unix(1000, 0),
		Seed:     []byte("chain-seed"),
	}
}

func newScheme(t *testing.T, cfg Config) *Scheme {
	t.Helper()
	s, err := New(cfg, crypto.NewSignerFromString("sender"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// promptClock delivers each wire packet shortly after its send time —
// always inside the safety window.
func promptClock(cfg Config) schemetest.Clock {
	return func(wireIndex int) time.Time {
		return cfg.SendTime(wireIndex).Add(time.Millisecond)
	}
}

func TestConformance(t *testing.T) {
	cfg := testConfig(10, 2)
	s := newScheme(t, cfg)
	schemetest.Conformance(t, s, promptClock(cfg))
}

// TestEnvConformance: only the bootstrap packet is signed, so there is no
// signature check worth deferring (BatchQ).
func TestEnvConformance(t *testing.T) {
	cfg := testConfig(24, 2)
	schemetest.EnvConformance(t, func(signer crypto.Signer) (scheme.Scheme, error) { return New(cfg, signer) },
		promptClock(cfg), schemetest.Honours{MaxBuffered: true, Cache: true})
}

func TestValidation(t *testing.T) {
	signer := crypto.NewSignerFromString("s")
	bad := []Config{
		{N: 0, Lag: 1, Interval: time.Second, Seed: []byte("x")},
		{N: 5, Lag: 0, Interval: time.Second, Seed: []byte("x")},
		{N: 5, Lag: 1, Interval: 0, Seed: []byte("x")},
		{N: 5, Lag: 1, Interval: time.Second},
		{N: 5, Lag: 1, Interval: time.Second, Seed: []byte("x"), ClockSkew: -time.Second},
	}
	for _, cfg := range bad {
		if _, err := New(cfg, signer); err == nil {
			t.Errorf("config %+v should fail", cfg)
		}
	}
	if _, err := New(testConfig(5, 1), nil); err == nil {
		t.Error("nil signer should fail")
	}
}

func TestWireLayout(t *testing.T) {
	cfg := testConfig(6, 2)
	s := newScheme(t, cfg)
	pkts, err := s.Authenticate(1, schemetest.Payloads(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 6+1+2 {
		t.Fatalf("wire count = %d, want 9", len(pkts))
	}
	if len(pkts[0].Signature) == 0 {
		t.Error("bootstrap must be signed")
	}
	// Data packet i (wire i+1) discloses key i-lag.
	for i := 1; i <= 6; i++ {
		p := pkts[i]
		if p.KeyIndex != uint32(i) {
			t.Errorf("data %d: KeyIndex = %d", i, p.KeyIndex)
		}
		if i > 2 {
			if p.DisclosedKeyIndex != uint32(i-2) || len(p.DisclosedKey) == 0 {
				t.Errorf("data %d: disclosed %d", i, p.DisclosedKeyIndex)
			}
		} else if len(p.DisclosedKey) != 0 {
			t.Errorf("data %d should not disclose a key yet", i)
		}
	}
	// Trailing packets disclose keys 5, 6.
	if pkts[7].DisclosedKeyIndex != 5 || pkts[8].DisclosedKeyIndex != 6 {
		t.Errorf("trailing disclosures: %d, %d", pkts[7].DisclosedKeyIndex, pkts[8].DisclosedKeyIndex)
	}
}

func TestTDisclose(t *testing.T) {
	cfg := testConfig(10, 3)
	if got := cfg.TDisclose(); got != 300*time.Millisecond {
		t.Errorf("TDisclose = %v, want 300ms", got)
	}
}

func TestLateArrivalDroppedAsUnsafe(t *testing.T) {
	// A data packet arriving after its key's disclosure time must be
	// dropped even if genuine: the key is public by then and the MAC
	// proves nothing.
	cfg := testConfig(8, 1)
	s := newScheme(t, cfg)
	pkts, err := s.Authenticate(1, schemetest.Payloads(8))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.NewVerifier(verifier.Env{})
	if err != nil {
		t.Fatal(err)
	}
	clock := promptClock(cfg)
	for w, p := range pkts {
		at := clock(w + 1)
		if p.Index == DataWireIndex(3) {
			// Key K_3 is disclosed by data packet 4 (wire 5).
			at = cfg.SendTime(5).Add(time.Second)
		}
		if _, err := v.Ingest(p, at); err != nil {
			t.Fatal(err)
		}
	}
	st := v.Stats()
	if st.Unsafe != 1 {
		t.Errorf("Unsafe = %d, want 1", st.Unsafe)
	}
	// Bootstrap + 7 of 8 data packets.
	if st.Authenticated != 8 {
		t.Errorf("Authenticated = %d, want 8", st.Authenticated)
	}
}

func TestKeyRecoveryAcrossLoss(t *testing.T) {
	// Losing several consecutive key-disclosing packets must not strand
	// earlier data: a later key recovers all earlier ones.
	cfg := testConfig(10, 1)
	s := newScheme(t, cfg)
	pkts, err := s.Authenticate(1, schemetest.Payloads(10))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.NewVerifier(verifier.Env{})
	if err != nil {
		t.Fatal(err)
	}
	clock := promptClock(cfg)
	lost := map[uint32]bool{
		DataWireIndex(4): true, // would disclose K_3
		DataWireIndex(5): true, // would disclose K_4
		DataWireIndex(6): true, // would disclose K_5
	}
	authenticated := make(map[uint32]bool)
	for w, p := range pkts {
		if lost[p.Index] {
			continue
		}
		evs, err := v.Ingest(p, clock(w+1))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			authenticated[e.Index] = true
		}
	}
	// Data packets 3, (4,5,6 lost... 3 was received) — all received data
	// packets must authenticate once packet 7 disclosed K_6 (recovering
	// K_3..K_5 via the chain).
	for i := 1; i <= 10; i++ {
		w := DataWireIndex(i)
		if lost[w] {
			continue
		}
		if !authenticated[w] {
			t.Errorf("data packet %d never authenticated", i)
		}
	}
}

// TestReleaseOrderIsIntervalOrder: one disclosure that frees several
// intervals releases them ascending, so the events Ingest returns (and the
// trace) are a function of the delivery. The parked intervals live in a map;
// ranging over it made the order differ from verifier to verifier.
func TestReleaseOrderIsIntervalOrder(t *testing.T) {
	// Lag 5 of 6: data packets 1..5 disclose nothing, so all five park.
	cfg := testConfig(6, 5)
	s := newScheme(t, cfg)
	pkts, err := s.Authenticate(1, schemetest.Payloads(6))
	if err != nil {
		t.Fatal(err)
	}
	clock := promptClock(cfg)
	const k5 = 6 + 1 + 4 // wire position of the trailing packet disclosing K_5
	if pkts[k5-1].DisclosedKeyIndex != 5 {
		t.Fatalf("wire %d discloses K_%d, want K_5", k5, pkts[k5-1].DisclosedKeyIndex)
	}
	want := []uint32{2, 3, 4, 5, 6}
	for run := 0; run < 20; run++ {
		v, err := s.NewVerifier(verifier.Env{})
		if err != nil {
			t.Fatal(err)
		}
		for w := 1; w <= 6; w++ {
			if evs, err := v.Ingest(pkts[w-1], clock(w)); err != nil || (w > 1 && len(evs) != 0) {
				t.Fatalf("wire %d: events %v, err %v", w, evs, err)
			}
		}
		evs, err := v.Ingest(pkts[k5-1], clock(k5))
		if err != nil {
			t.Fatal(err)
		}
		var got []uint32
		for _, e := range evs {
			got = append(got, e.Index)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("run %d released %v, want %v", run, got, want)
		}
	}
}

func TestForgedDisclosedKeyRejected(t *testing.T) {
	cfg := testConfig(6, 1)
	s := newScheme(t, cfg)
	pkts, err := s.Authenticate(1, schemetest.Payloads(6))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.NewVerifier(verifier.Env{})
	if err != nil {
		t.Fatal(err)
	}
	clock := promptClock(cfg)
	forged := 0
	for w, p := range pkts {
		deliver := p
		if len(p.DisclosedKey) > 0 && forged == 0 {
			evil := *p
			evil.DisclosedKey = append([]byte(nil), p.DisclosedKey...)
			evil.DisclosedKey[0] ^= 0xff
			deliver = &evil
			forged++
		}
		if _, err := v.Ingest(deliver, clock(w+1)); err != nil {
			t.Fatal(err)
		}
	}
	if v.Stats().Rejected == 0 {
		t.Error("forged key never rejected")
	}
}

func TestBootstrapLateBuffering(t *testing.T) {
	// Data packets arriving before the bootstrap buffer and then verify
	// once the bootstrap arrives.
	cfg := testConfig(6, 1)
	s := newScheme(t, cfg)
	pkts, err := s.Authenticate(1, schemetest.Payloads(6))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.NewVerifier(verifier.Env{})
	if err != nil {
		t.Fatal(err)
	}
	clock := promptClock(cfg)
	var total int
	// Deliver everything except the bootstrap first.
	for w := 1; w < len(pkts); w++ {
		evs, err := v.Ingest(pkts[w], clock(w+1))
		if err != nil {
			t.Fatal(err)
		}
		total += len(evs)
	}
	if total != 0 {
		t.Fatalf("authenticated %d packets before bootstrap", total)
	}
	evs, err := v.Ingest(pkts[0], clock(len(pkts)))
	if err != nil {
		t.Fatal(err)
	}
	// All 6 data packets authenticate in one cascade (the bootstrap
	// itself carries no user payload and emits no event).
	if len(evs) != 6 {
		t.Errorf("cascade authenticated %d, want 6", len(evs))
	}
}

func TestForgedBootstrapRejected(t *testing.T) {
	cfg := testConfig(4, 1)
	s := newScheme(t, cfg)
	attacker, err := New(cfg, crypto.NewSignerFromString("attacker"))
	if err != nil {
		t.Fatal(err)
	}
	evilPkts, err := attacker.Authenticate(1, schemetest.Payloads(4))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.NewVerifier(verifier.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Ingest(evilPkts[0], cfg.Start); err != nil {
		t.Fatal(err)
	}
	if v.Stats().Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", v.Stats().Rejected)
	}
}

func TestGraphShapeAndLambda(t *testing.T) {
	// The split-vertex graph must reproduce λ_i = 1 - p^(n+1-i) under
	// Monte-Carlo (conditioning ξ = 1: no timing loss in the graph).
	cfg := testConfig(8, 1)
	s := newScheme(t, cfg)
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N() != 2*8+1 {
		t.Fatalf("graph has %d vertices, want 17", g.N())
	}
	p := 0.3
	mc, err := g.MonteCarloAuthProbInto(depgraph.BernoulliPatternInto(p), 60000, stats.NewRNG(11), depgraph.MCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		want := 1 - math.Pow(p, float64(8+1-i))
		got := mc.Q[1+i] // message vertex
		if math.Abs(got-want) > 0.02 {
			t.Errorf("λ_%d = %v, want %v", i, got, want)
		}
	}
}

func TestClockSkewTightensDeadline(t *testing.T) {
	cfg := testConfig(4, 1)
	cfg.ClockSkew = 50 * time.Millisecond
	if _, err := New(cfg, crypto.NewSignerFromString("s")); err != nil {
		t.Fatal(err)
	}
	base := testConfig(4, 1)
	if !cfg.disclosureDeadline(1).Before(base.disclosureDeadline(1)) {
		t.Error("clock skew must tighten the safety deadline")
	}
}

func TestDeterministicAcrossBlocks(t *testing.T) {
	// Different block IDs must yield different chains (no key reuse).
	cfg := testConfig(4, 1)
	s := newScheme(t, cfg)
	a, err := s.Authenticate(1, schemetest.Payloads(4))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Authenticate(2, schemetest.Payloads(4))
	if err != nil {
		t.Fatal(err)
	}
	if string(a[3].DisclosedKey) == string(b[3].DisclosedKey) {
		t.Error("key chains reused across blocks")
	}
}

func TestNameAndConfigAccessors(t *testing.T) {
	cfg := testConfig(7, 3)
	s := newScheme(t, cfg)
	if s.Name() != "tesla(n=7, lag=3)" {
		t.Errorf("Name = %q", s.Name())
	}
	got := s.config()
	if got.N != 7 || got.Lag != 3 || got.Interval != cfg.Interval {
		t.Errorf("Config = %+v", got)
	}
}

func TestDuplicateBufferedPacketEmitsOnce(t *testing.T) {
	// A network that duplicates datagrams must not double-deliver: two
	// copies of the same data packet buffered before the key arrives
	// yield exactly one authentication event.
	cfg := testConfig(4, 2)
	s := newScheme(t, cfg)
	pkts, err := s.Authenticate(1, schemetest.Payloads(4))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.NewVerifier(verifier.Env{})
	if err != nil {
		t.Fatal(err)
	}
	clock := promptClock(cfg)
	if _, err := v.Ingest(pkts[0], clock(1)); err != nil { // bootstrap
		t.Fatal(err)
	}
	data1 := pkts[1] // data packet 1, key not yet disclosed
	if _, err := v.Ingest(data1, clock(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Ingest(data1, clock(2)); err != nil { // duplicate
		t.Fatal(err)
	}
	events := 0
	for w := 2; w < len(pkts); w++ {
		evs, err := v.Ingest(pkts[w], clock(w+1))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range evs {
			if e.Index == data1.Index {
				events++
			}
		}
	}
	if events != 1 {
		t.Errorf("duplicated packet produced %d events, want 1", events)
	}
	if v.Stats().Duplicates == 0 {
		t.Error("duplicate never counted")
	}
}

func TestBufferCapBoundsFlood(t *testing.T) {
	// An adversarial pre-bootstrap flood must be bounded: with the Env's
	// MaxBuffered set, the verifier drops (and counts) overflowing packets
	// instead of growing its buffers without limit.
	cfg := testConfig(10, 2)
	s := newScheme(t, cfg)
	v, err := s.NewVerifier(verifier.Env{MaxBuffered: 4})
	if err != nil {
		t.Fatal(err)
	}
	at := cfg.Start.Add(time.Millisecond)
	const flood = 100
	for i := 0; i < flood; i++ {
		p := &packet.Packet{
			BlockID:  1,
			Index:    DataWireIndex(1),
			KeyIndex: 1,
			Payload:  []byte{byte(i)},
			MAC:      []byte("junk-mac-junk-mac-junk-mac-junk-"),
		}
		if _, err := v.Ingest(p, at); err != nil {
			t.Fatalf("flood packet %d: %v", i, err)
		}
	}
	st := v.Stats()
	if st.MsgBufferHighWater > 4 {
		t.Errorf("buffer high water %d exceeds cap 4", st.MsgBufferHighWater)
	}
	if st.DroppedOverflow != flood-4 {
		t.Errorf("DroppedOverflow = %d, want %d", st.DroppedOverflow, flood-4)
	}
}

func TestBufferCapStillAuthenticatesGenuine(t *testing.T) {
	// With a cap no smaller than the block, a benign in-order run is
	// unaffected: everything authenticates.
	cfg := testConfig(8, 2)
	s := newScheme(t, cfg)
	pkts, err := s.Authenticate(4, schemetest.Payloads(8))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.NewVerifier(verifier.Env{MaxBuffered: cfg.N + cfg.Lag + 1})
	if err != nil {
		t.Fatal(err)
	}
	clock := promptClock(cfg)
	var events []verifier.Event
	for w, p := range pkts {
		evs, err := v.Ingest(p, clock(w+1))
		if err != nil {
			t.Fatalf("wire %d: %v", w+1, err)
		}
		events = append(events, evs...)
	}
	data := 0
	for _, e := range events {
		if e.Index >= DataWireIndex(1) && e.Index <= DataWireIndex(cfg.N) {
			data++
		}
	}
	if data != cfg.N {
		t.Errorf("authenticated %d data packets under cap, want %d", data, cfg.N)
	}
}

func TestValidationRejectsNegativeBufferCap(t *testing.T) {
	s := newScheme(t, testConfig(5, 1))
	if _, err := s.NewVerifier(verifier.Env{MaxBuffered: -1}); err == nil {
		t.Error("negative MaxBuffered should fail validation")
	}
}

func TestCorruptionSweep(t *testing.T) {
	cfg := testConfig(10, 2)
	s := newScheme(t, cfg)
	schemetest.CorruptionSweep(t, s, schemetest.SweepParams{
		Reliable: []uint32{1},
		Interval: cfg.Interval,
		Start:    cfg.Start,
	})
}
