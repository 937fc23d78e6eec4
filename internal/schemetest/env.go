package schemetest

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"mcauth/internal/crypto"
	"mcauth/internal/fault"
	"mcauth/internal/obs"
	"mcauth/internal/packet"
	"mcauth/internal/scheme"
	"mcauth/internal/stats"
	"mcauth/internal/verifier"
)

// Honours states which verifier.Env fields change what a scheme's verifier
// does. EnvConformance checks every claim in both directions, so a field a
// scheme ignores is a stated fact rather than a silent no-op. The
// observation fields (Spans, Metrics) are not here: every verifier
// reports through a verifier.Recorder, so every scheme honours them, and
// EnvConformance checks that against the authenticated set. Nor is Sigs:
// every scheme has a synchronous signature check and every one goes through
// the memo, which EnvConformance checks by the memo's own hit count. No
// field changes what a signature check accepts: the key decides, with or
// without Sigs or BatchQ — a crypto.BatchCapable key accepts a batch blob
// and a plain key refuses one — which EnvConformance checks on a
// batch-signed block.
type Honours struct {
	// MaxBuffered: with no BatchQ, a cap of 1 drops overflow when the
	// block's signature material arrives last. (Schemes that honour BatchQ
	// always cap their parked signatures; that is checked regardless.)
	MaxBuffered bool
	// Cache: a second subscriber behind a warm cache records CacheHits.
	Cache bool
	// BatchQ: signature checks park on the queue and authenticate through
	// Sink.
	BatchQ bool
	// Digests: a packet's content digest is looked up in the memo before
	// it is hashed, so a memo entry that is wrong de-authenticates its
	// packet — the memo is trusted input, which is why only the party that
	// built the packets may fill it.
	Digests bool
}

// ChainedHonours is what every scheme built on the generic hash-chained
// engine (internal/verifier) honours: all of Env.
var ChainedHonours = Honours{MaxBuffered: true, Cache: true, BatchQ: true, Digests: true}

// arrival is one delivered packet and the clock reading it arrives at.
type arrival struct {
	p    *packet.Packet
	wire int // 1-based send position, for the Clock
}

// envDelivery builds the one seeded delivery every Env sees: 15 % loss
// (sparing a block's sole signature packet, the paper's standing
// assumption that P_sign arrives), 15 % duplicates, 15 % wrong-key
// forgeries and one pass of adjacent swaps. A forgery of an unsigned packet
// stays behind its genuine twin: ahead of it, with both still unverifiable,
// it would occupy the twin's message-buffer slot in the hash-chained engine
// and the outcome would depend on when the signature resolves — a known
// weakness outside what an Env may change.
func envDelivery(t *testing.T, s scheme.Scheme, blockID uint64) (pkts []*packet.Packet, out []arrival) {
	t.Helper()
	pkts, err := s.Authenticate(blockID, Payloads(s.BlockSize()))
	if err != nil {
		t.Fatalf("Authenticate: %v", err)
	}
	signed := 0
	for _, p := range pkts {
		if len(p.Signature) > 0 {
			signed++
		}
	}
	rng := stats.NewRNG(20260928)
	forger := fault.NewWrongKeyForger("env-conformance")
	var lost, dups, forged int
	for w, p := range pkts {
		sole := signed == 1 && len(p.Signature) > 0
		if !sole && rng.Bernoulli(0.15) {
			lost++
			continue
		}
		a := arrival{p, w + 1}
		if rng.Bernoulli(0.15) {
			f := arrival{forger.Forge(rng, p), w + 1}
			forged++
			if len(p.Signature) > 0 && rng.Bernoulli(0.5) {
				out = append(out, f, a)
			} else {
				out = append(out, a, f)
			}
		} else {
			out = append(out, a)
		}
		if rng.Bernoulli(0.15) {
			out = append(out, a)
			dups++
		}
	}
	for i := 0; i+1 < len(out); i++ {
		twin := out[i+1].p.Index == out[i].p.Index && fault.IsForgedPayload(out[i+1].p.Payload) &&
			!fault.IsForgedPayload(out[i].p.Payload)
		if !twin && rng.Bernoulli(0.3) {
			out[i], out[i+1] = out[i+1], out[i]
		}
	}
	if lost == 0 || dups == 0 || forged == 0 {
		t.Fatalf("delivery is vacuous: %d lost, %d duplicated, %d forged", lost, dups, forged)
	}
	return pkts, out
}

// withCorruptedCopies stands a bit-flipped copy in for every packet the
// delivery lost: the corrupted datagram of a faulted channel. A copy is a
// packet of its own — to a digest memo keyed by packet, a stranger — that
// fails whatever check its scheme applies, so the genuine delivered set and
// with it the authenticated set stay what they were. (Only a lost packet's
// copy is ever checked: behind a delivered twin it would be a duplicate, and
// ahead of one it would take the twin's buffer slot, as envDelivery says.)
func withCorruptedCopies(pkts []*packet.Packet, delivery []arrival) []arrival {
	delivered := make(map[uint32]bool)
	for _, a := range delivery {
		delivered[a.p.Index] = true
	}
	var out []arrival
	next := 0 // first wire position not yet passed
	for _, a := range delivery {
		for ; next < a.wire-1; next++ {
			if p := pkts[next]; !delivered[p.Index] {
				cp := *p
				cp.Payload = slices.Clone(p.Payload)
				cp.Payload[0] ^= 0x01
				out = append(out, arrival{&cp, next + 1})
			}
		}
		out = append(out, a)
	}
	return out
}

// envRun is what one verifier made of the delivery.
type envRun struct {
	authed     []uint32 // sorted
	order      []uint32 // the same indices in the order they authenticated
	stats      verifier.Stats
	maxPending int // peak Stats().PendingSignature
	sunk       int // events delivered through Sink
	spans      []obs.Span
	metrics    obs.Snapshot
}

// runEnv feeds the delivery to a fresh verifier built with env. resolveEvery
// > 0 resolves env.BatchQ by hand every that many packets; the queue is
// always resolved at the end.
func runEnv(t *testing.T, s scheme.Scheme, env verifier.Env, delivery []arrival, clock Clock, resolveEvery int) envRun {
	t.Helper()
	return runBuilt(t, s.NewVerifier, env, delivery, clock, resolveEvery)
}

// runBuilt is runEnv with the verifier made by build: NewVerifier, or Reset
// on one that served another block.
func runBuilt(t *testing.T, build func(verifier.Env) (scheme.Verifier, error), env verifier.Env, delivery []arrival, clock Clock, resolveEvery int) envRun {
	t.Helper()
	var run envRun
	seen := make(map[uint32]bool)
	note := func(events []verifier.Event) {
		for _, e := range events {
			if fault.IsForgedPayload(e.Payload) {
				t.Fatalf("forged payload authenticated at index %d", e.Index)
			}
			if seen[e.Index] {
				t.Fatalf("index %d authenticated twice", e.Index)
			}
			seen[e.Index] = true
			run.authed = append(run.authed, e.Index)
		}
	}
	if env.BatchQ != nil {
		env.Sink = func(events []verifier.Event) {
			run.sunk += len(events)
			note(events)
		}
	}
	v, err := build(env)
	if err != nil {
		t.Fatalf("building a verifier with %+v: %v", env, err)
	}
	for i, a := range delivery {
		events, err := v.Ingest(a.p, clock(a.wire))
		if err != nil {
			t.Fatalf("Ingest wire %d: %v", a.wire, err)
		}
		note(events)
		run.maxPending = max(run.maxPending, v.Stats().PendingSignature)
		if resolveEvery > 0 && i%resolveEvery == resolveEvery-1 {
			env.BatchQ.Resolve()
		}
	}
	if env.BatchQ != nil {
		env.BatchQ.Resolve()
	}
	run.stats = v.Stats()
	if run.stats.PendingSignature != 0 {
		t.Fatalf("%d verdicts pending after the final resolve", run.stats.PendingSignature)
	}
	run.order = slices.Clone(run.authed)
	slices.Sort(run.authed)
	run.spans, run.metrics = env.Spans.Snapshot(), env.Metrics.Snapshot()
	checkLedger(t, env, delivery, run)
	return run
}

// checkLedger holds every sink env attaches to what the run authenticated:
// Stats == verifier.authenticated == authenticate records == the
// authenticated set, for every scheme — one authentication is one Stats
// count, one receiver-delay observation, one counter increment and one
// authenticate record naming the index. The ledger may count past the Events
// only for signed packets: TESLA authenticates its bootstrap, which carries
// the schedule and no message, without an Event. env's sinks must be fresh.
func checkLedger(t *testing.T, env verifier.Env, delivery []arrival, run envRun) {
	t.Helper()
	silent := make(map[uint32]bool)
	for _, a := range delivery {
		_, reported := slices.BinarySearch(run.authed, a.p.Index)
		if len(a.p.Signature) > 0 && !fault.IsForgedPayload(a.p.Payload) && !reported {
			silent[a.p.Index] = true
		}
	}
	n := run.stats.Authenticated
	if n < len(run.authed) || n > len(run.authed)+len(silent) || run.stats.TimeToAuth.Count != int64(n) {
		t.Errorf("%d Events and %d signed packets without one, Stats counts %d authenticated with %d time-to-auth observations",
			len(run.authed), len(silent), n, run.stats.TimeToAuth.Count)
	}
	if env.Metrics != nil {
		got := env.Metrics.Snapshot().Counters
		for name, want := range map[string]int{
			"verifier.authenticated": n,
			"verifier.rejected":      run.stats.Rejected,
			"verifier.duplicates":    run.stats.Duplicates,
		} {
			if got[name] != int64(want) {
				t.Errorf("Stats counts %d, %s = %d", want, name, got[name])
			}
		}
	}
	if env.Spans != nil {
		var traced []uint32
		records := 0
		for _, s := range env.Spans.Snapshot() {
			if s.Kind != obs.SpanAuthenticate {
				continue
			}
			records++
			if !silent[s.Index] {
				traced = append(traced, s.Index)
			}
		}
		slices.Sort(traced)
		if records != n || !slices.Equal(traced, run.authed) {
			t.Errorf("Stats counts %d authenticated, %d authenticate records, for %v beside signed packets; Events for %v",
				n, records, traced, run.authed)
		}
	}
}

// EnvConformance is the contract of verifier.Env: one seeded delivery
// (loss, duplicates, reorder, wrong-key forgeries) through a verifier built
// with each environment authenticates the same index set as the zero Env —
// for VertexMapper schemes exactly the dependence graph's verifiable set of
// the genuine delivered packets — and each field has an observable effect
// exactly where honours says the scheme honours it. build makes the scheme
// under test from its signer; it is called with a plain key and with its
// crypto.BatchCapable wrapping (batchSignedConformance).
func EnvConformance(t *testing.T, build func(crypto.Signer) (scheme.Scheme, error), clock Clock, honours Honours) {
	t.Helper()
	const stream, block = 7, 5
	signer := crypto.NewSignerFromString("sender")
	s, err := build(signer)
	if err != nil {
		t.Fatal(err)
	}
	pkts, delivery := envDelivery(t, s, block)
	queue := func(batch int) *crypto.BatchVerifyQueue {
		q, err := crypto.NewBatchVerifyQueue(batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	newCache := func() *verifier.SharedCache {
		c, err := verifier.NewSharedCache(4 * len(pkts))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	sink := func() *obs.SpanSink { return obs.NewSpanSink(obs.KeepAll, nil) }

	zero := runEnv(t, s, verifier.Env{}, delivery, clock, 0)
	if len(zero.authed) == 0 || len(zero.authed) == len(pkts) {
		t.Fatalf("delivery is vacuous: zero Env authenticated %d of %d", len(zero.authed), len(pkts))
	}
	if want, ok := graphVerifiable(t, s, pkts, delivery); ok && !slices.Equal(zero.authed, want) {
		t.Errorf("zero Env authenticated %v\ndependence graph says %v", zero.authed, want)
	}
	same := func(name string, run envRun) envRun {
		t.Helper()
		if !slices.Equal(run.authed, zero.authed) {
			t.Errorf("%s authenticated %v\nzero Env authenticated %v", name, run.authed, zero.authed)
		}
		return run
	}
	effect := func(field string, honoured, observed bool) {
		t.Helper()
		if honoured != observed {
			t.Errorf("Env.%s: honours says %v, observed effect %v", field, honoured, observed)
		}
	}

	same("MaxBuffered (not binding)", runEnv(t, s, verifier.Env{MaxBuffered: len(delivery)}, delivery, clock, 0))

	cache := newCache()
	cold := same("cold Cache", runEnv(t, s, verifier.Env{Cache: cache, StreamID: stream}, delivery, clock, 0))
	warm := same("warm Cache", runEnv(t, s, verifier.Env{Cache: cache, StreamID: stream}, delivery, clock, 0))
	if cold.stats.CacheHits != 0 {
		t.Errorf("first subscriber hit a cold cache %d times", cold.stats.CacheHits)
	}
	effect("Cache", honours.Cache, warm.stats.CacheHits > 0)

	explicit := same("BatchQ, explicit Resolve", runEnv(t, s, verifier.Env{BatchQ: queue(1 << 20)}, delivery, clock, 4))
	auto := same("BatchQ, auto-resolve", runEnv(t, s, verifier.Env{BatchQ: queue(2)}, delivery, clock, 0))
	effect("BatchQ", honours.BatchQ, explicit.maxPending > 0 && explicit.sunk > 0)
	effect("BatchQ", honours.BatchQ, auto.maxPending > 0 && auto.sunk > 0)
	if explicit.stats.MsgBufferHighWater < explicit.maxPending {
		t.Errorf("%d signatures parked at once, message buffer high water %d", explicit.maxPending, explicit.stats.MsgBufferHighWater)
	}

	// One signature memo under every verifier of the delivery, as netsim
	// shares one among a run's receivers: the first verifier fills it, the
	// second settles its signature checks from it, and the wrong-key
	// forgeries in the delivery are refused by both.
	sigs, err := crypto.NewSigCache(len(pkts))
	if err != nil {
		t.Fatal(err)
	}
	same("cold Sigs", runEnv(t, s, verifier.Env{Sigs: sigs}, delivery, clock, 0))
	filled := sigs.Stats()
	same("warm Sigs", runEnv(t, s, verifier.Env{Sigs: sigs}, delivery, clock, 0))
	if warmed := sigs.Stats(); warmed.Hits == filled.Hits || warmed.Misses-filled.Misses >= filled.Misses {
		t.Errorf("Env.Sigs: second verifier behind a filled memo: lookups went %+v -> %+v, want new hits and fewer misses than the first", filled, warmed)
	}

	// The digest memo of a simulated run, built from the sender's own
	// packets, beside everything that is not one of them: the delivery's
	// wrong-key forgeries and a bit-flipped copy of each lost packet. Its
	// verifier must do what the zero Env's does, event for event; that a
	// chained verifier reads it at all shows in a poisoned entry
	// de-authenticating its packet.
	memo := verifier.NewDigestMemo(pkts)
	corrupted := withCorruptedCopies(pkts, delivery)
	if len(corrupted) == len(delivery) {
		t.Fatal("delivery is vacuous: no lost packet to corrupt")
	}
	plain := same("corrupted copies", runEnv(t, s, verifier.Env{}, corrupted, clock, 0))
	if plain.stats.Rejected <= zero.stats.Rejected {
		t.Fatalf("delivery is vacuous: %d corrupted copies, none rejected", len(corrupted)-len(delivery))
	}
	memod := same("Digests", runEnv(t, s, verifier.Env{Digests: memo}, corrupted, clock, 0))
	if !slices.Equal(memod.order, plain.order) || memod.stats != plain.stats {
		t.Errorf("Env.Digests: authenticated %v, stats %+v\nzero Env:    authenticated %v, stats %+v",
			memod.order, memod.stats, plain.order, plain.stats)
	}
	poisoned := maps.Clone(memo)
	for _, a := range delivery {
		if _, ok := slices.BinarySearch(zero.authed, a.p.Index); ok && len(a.p.Signature) == 0 && !fault.IsForgedPayload(a.p.Payload) {
			poisoned[a.p] = crypto.HashBytes([]byte("poisoned"))
			break
		}
	}
	wrong := runEnv(t, s, verifier.Env{Digests: poisoned}, corrupted, clock, 0)
	effect("Digests", honours.Digests, !slices.Equal(wrong.authed, zero.authed))

	same("Spans", runEnv(t, s, verifier.Env{Spans: sink(), StreamID: stream}, delivery, clock, 0))
	same("Metrics", runEnv(t, s, verifier.Env{Metrics: obs.NewRegistry()}, delivery, clock, 0))
	same("all fields", runEnv(t, s, verifier.Env{
		StreamID: stream, MaxBuffered: len(delivery), Cache: newCache(), Sigs: sigs, Digests: memo, BatchQ: queue(2),
		Spans: sink(), Metrics: obs.NewRegistry(),
	}, delivery, clock, 0))

	// The cap, probed where it binds: the unsigned packets alone, so
	// whatever can buffer does. Where every packet is signed nothing
	// buffers outside deferred mode, whatever the order.
	var starved []arrival
	for w, p := range pkts {
		if len(p.Signature) == 0 {
			starved = append(starved, arrival{p, w + 1})
		}
	}
	if len(starved) == 0 {
		starved = delivery
	}
	capped := runEnv(t, s, verifier.Env{MaxBuffered: 1}, starved, clock, 0)
	effect("MaxBuffered", honours.MaxBuffered, capped.stats.DroppedOverflow > 0)
	if honours.BatchQ {
		parked := runEnv(t, s, verifier.Env{MaxBuffered: 1, BatchQ: queue(1 << 20)}, delivery, clock, 0)
		if parked.stats.DroppedOverflow == 0 {
			t.Error("a cap of 1 dropped nothing with every signature check parked")
		}
	}
	if _, err := s.NewVerifier(verifier.Env{MaxBuffered: -1}); err == nil {
		t.Error("negative MaxBuffered should fail construction")
	}
	resetConformance(t, s, clock, honours, block)
	capable, err := build(crypto.BatchCapable(signer))
	if err != nil {
		t.Fatal(err)
	}
	batchSignedConformance(t, s, capable, signer, clock)
}

// batchSignedConformance holds every Env to one signature rule: the key
// decides. It delivers one block whole and in order with every signature
// re-signed as a MABS batch blob (batchSigned), to verifiers of s, whose key
// is plain, and of capable, the same scheme under the crypto.BatchCapable
// key. Under the plain key no Env authenticates a packet: each one's
// authentication starts at a blob-signed signature, which a plain key
// refuses, synchronously or deferred, whatever a shared memo already holds.
// Under the batch-capable key every Env authenticates what the zero Env
// authenticates of the block as s signs it.
func batchSignedConformance(t *testing.T, s, capable scheme.Scheme, signer crypto.Signer, clock Clock) {
	t.Helper()
	const stream, block = 7, 9
	inOrder := func(pkts []*packet.Packet) []arrival {
		out := make([]arrival, len(pkts))
		for w, p := range pkts {
			out[w] = arrival{p, w + 1}
		}
		return out
	}
	plainly, err := s.Authenticate(block, Payloads(s.BlockSize()))
	if err != nil {
		t.Fatal(err)
	}
	want := runEnv(t, s, verifier.Env{}, inOrder(plainly), clock, 0).authed
	if len(want) == 0 {
		t.Fatal("delivery is vacuous: the plainly signed block authenticated nothing")
	}
	pkts := batchSigned(t, s, signer, block)
	delivery := inOrder(pkts)
	queue := func(batch int, sigs *crypto.SigCache) *crypto.BatchVerifyQueue {
		q, err := crypto.NewBatchVerifyQueue(batch, sigs)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	newCache := func() *verifier.SharedCache {
		c, err := verifier.NewSharedCache(4 * len(pkts))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// One memo under every verifier, the batch-capable key's first: it
	// holds the blobs' inner check when the plain key's verifiers meet it.
	sigs, err := crypto.NewSigCache(len(pkts))
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range []struct {
		name         string
		env          func() verifier.Env // fresh state on every call
		resolveEvery int
	}{
		{"zero", func() verifier.Env { return verifier.Env{} }, 0},
		{"Cache", func() verifier.Env { return verifier.Env{Cache: newCache(), StreamID: stream} }, 0},
		{"Sigs", func() verifier.Env { return verifier.Env{Sigs: sigs} }, 0},
		{"Digests", func() verifier.Env { return verifier.Env{Digests: verifier.NewDigestMemo(pkts)} }, 0},
		{"BatchQ, explicit Resolve", func() verifier.Env { return verifier.Env{BatchQ: queue(1<<20, nil)} }, 4},
		{"BatchQ, auto-resolve", func() verifier.Env { return verifier.Env{BatchQ: queue(2, nil)} }, 0},
		{"Sigs behind BatchQ", func() verifier.Env { return verifier.Env{Sigs: sigs, BatchQ: queue(2, sigs)} }, 0},
		{"all fields", func() verifier.Env {
			return verifier.Env{
				StreamID: stream, MaxBuffered: len(delivery), Cache: newCache(), Sigs: sigs,
				Digests: verifier.NewDigestMemo(pkts), BatchQ: queue(2, sigs),
				Spans: obs.NewSpanSink(obs.KeepAll, nil), Metrics: obs.NewRegistry(),
			}
		}, 0},
	} {
		if got := runEnv(t, capable, sh.env(), delivery, clock, sh.resolveEvery); !slices.Equal(got.authed, want) {
			t.Errorf("batch-capable key, %s: authenticated %v of the batch-signed block\nplain signatures authenticate %v", sh.name, got.authed, want)
		}
		if got := runEnv(t, s, sh.env(), delivery, clock, sh.resolveEvery); len(got.authed) > 0 {
			t.Errorf("plain key, %s: authenticated %v of the batch-signed block", sh.name, got.authed)
		}
	}
}

// batchSigned authenticates block as s sends it with every signature a
// MABS batch blob (crypto.BatchSign): the pending root's, through
// AuthenticateDeferred and Attach, or else each signature-bearing packet's
// own, all in one batch. Each batch holds one more leaf, so every blob
// carries a Merkle path.
func batchSigned(t *testing.T, s scheme.Scheme, signer crypto.Signer, block uint64) []*packet.Packet {
	t.Helper()
	sibling := []byte("another root of the flush")
	if da, ok := s.(scheme.DeferredAuthenticator); ok {
		pkts, pr, err := da.AuthenticateDeferred(block, Payloads(s.BlockSize()))
		if err != nil {
			t.Fatal(err)
		}
		blobs, err := crypto.BatchSign(signer, [][]byte{pr.Content, sibling})
		if err != nil {
			t.Fatal(err)
		}
		pr.Attach(blobs[0])
		return pkts
	}
	pkts, err := s.Authenticate(block, Payloads(s.BlockSize()))
	if err != nil {
		t.Fatal(err)
	}
	var signed []*packet.Packet
	contents := [][]byte{sibling}
	for _, p := range pkts {
		if len(p.Signature) > 0 {
			signed = append(signed, p)
			contents = append(contents, p.ContentBytes())
		}
	}
	blobs, err := crypto.BatchSign(signer, contents)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range signed {
		p.Signature = blobs[i+1]
	}
	return pkts
}

// resetConformance pins scheme.Verifier.Reset to NewVerifier: a verifier
// dirtied with block k, then Reset with any Env shape EnvConformance builds,
// replays block k (a simulator's next receiver of the same block) and block
// k+1 (a stream's next block) exactly as a new verifier does — the same
// events in the same order, the same Stats, the same trace records and
// metrics. The replay opens with a bad-signature copy of the first signed
// packet, which a fresh verifier refuses; state proven for block k that
// survived the Reset would accept it.
func resetConformance(t *testing.T, s scheme.Scheme, clock Clock, honours Honours, block uint64) {
	t.Helper()
	const stream = 7
	queue := func(batch int) *crypto.BatchVerifyQueue {
		q, err := crypto.NewBatchVerifyQueue(batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	newCache := func() *verifier.SharedCache {
		c, err := verifier.NewSharedCache(4 * s.WireCount())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	newSigs := func() *crypto.SigCache {
		c, err := crypto.NewSigCache(s.WireCount())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	sink := func() *obs.SpanSink { return obs.NewSpanSink(obs.KeepAll, nil) }

	// dirty leaves a verifier with what block leaves behind: the delivery's
	// authenticated, buffered, duplicated and refused packets, deferred
	// verdicts resolved packet by packet, a warm cache, then a forgery of
	// every packet — signed with the attacker's key when deferred, and
	// parked on the queue, which is never resolved again: Reset must drop
	// what is parked, not wait for it. capped sets a buffer cap the flood
	// overflows; a cap also starves a chain that signs its last packet, so
	// the uncapped run is the one that authenticates.
	dirty := func(deferred, capped bool) scheme.Verifier {
		pkts, delivery := envDelivery(t, s, block)
		env := verifier.Env{
			StreamID: stream, Cache: newCache(), Sigs: newSigs(),
			Digests: verifier.NewDigestMemo(pkts), Spans: sink(), Metrics: obs.NewRegistry(),
		}
		if capped {
			env.MaxBuffered = 1
		}
		if deferred {
			env.BatchQ, env.Sink = queue(1<<20), func([]verifier.Event) {}
		}
		v, err := s.NewVerifier(env)
		if err != nil {
			t.Fatal(err)
		}
		ingest := func(a arrival) {
			if _, err := v.Ingest(a.p, clock(a.wire)); err != nil {
				t.Fatalf("dirtying: Ingest wire %d: %v", a.wire, err)
			}
		}
		for _, a := range withBadSignature(delivery) {
			ingest(a)
			if deferred {
				env.BatchQ.Resolve()
			}
		}
		rng := stats.NewRNG(block)
		forger := fault.NewWrongKeyForger("reset-conformance")
		signed := slices.IndexFunc(pkts, func(p *packet.Packet) bool { return len(p.Signature) > 0 })
		for w, p := range pkts {
			f := forger.Forge(rng, p)
			if deferred && len(f.Signature) == 0 {
				f.Signature = forger.Forge(rng, pkts[signed]).Signature
			}
			ingest(arrival{f, w + 1})
		}
		st := v.Stats()
		switch {
		case st.Received == 0 || st.Duplicates == 0:
		case capped && (honours.MaxBuffered || deferred && honours.BatchQ) && st.DroppedOverflow == 0:
		case !capped && (st.Authenticated == 0 || st.Rejected == 0):
		case !capped && deferred && honours.BatchQ && st.PendingSignature == 0:
		default:
			return v
		}
		t.Fatalf("dirtying is vacuous (deferred %v, capped %v): %+v", deferred, capped, st)
		return nil
	}

	for _, replay := range []uint64{block, block + 1} {
		pkts, delivery := envDelivery(t, s, replay)
		delivery = withBadSignature(delivery)
		var starved []arrival
		for w, p := range pkts {
			if len(p.Signature) == 0 {
				starved = append(starved, arrival{p, w + 1})
			}
		}
		if len(starved) == 0 {
			starved = delivery
		}
		warmCache := func() *verifier.SharedCache {
			c := newCache()
			runEnv(t, s, verifier.Env{Cache: c, StreamID: stream}, delivery, clock, 0)
			return c
		}
		warmSigs := func() *crypto.SigCache {
			c := newSigs()
			runEnv(t, s, verifier.Env{Sigs: c}, delivery, clock, 0)
			return c
		}
		memo := verifier.NewDigestMemo(pkts)
		poisoned := maps.Clone(memo)
		for _, p := range pkts {
			if len(p.Signature) == 0 {
				poisoned[p] = crypto.HashBytes([]byte("poisoned"))
				break
			}
		}
		shapes := []struct {
			name         string
			env          func() verifier.Env // fresh state on every call
			delivery     []arrival
			resolveEvery int
		}{
			{"zero", func() verifier.Env { return verifier.Env{} }, delivery, 0},
			{"MaxBuffered (not binding)", func() verifier.Env { return verifier.Env{MaxBuffered: len(delivery)} }, delivery, 0},
			{"cold Cache", func() verifier.Env { return verifier.Env{Cache: newCache(), StreamID: stream} }, delivery, 0},
			{"warm Cache", func() verifier.Env { return verifier.Env{Cache: warmCache(), StreamID: stream} }, delivery, 0},
			{"BatchQ, explicit Resolve", func() verifier.Env { return verifier.Env{BatchQ: queue(1 << 20)} }, delivery, 4},
			{"BatchQ, auto-resolve", func() verifier.Env { return verifier.Env{BatchQ: queue(2)} }, delivery, 0},
			{"cold Sigs", func() verifier.Env { return verifier.Env{Sigs: newSigs()} }, delivery, 0},
			{"warm Sigs", func() verifier.Env { return verifier.Env{Sigs: warmSigs()} }, delivery, 0},
			{"Digests", func() verifier.Env { return verifier.Env{Digests: memo} }, withCorruptedCopies(pkts, delivery), 0},
			{"poisoned Digests", func() verifier.Env { return verifier.Env{Digests: poisoned} }, delivery, 0},
			{"Spans", func() verifier.Env { return verifier.Env{Spans: sink(), StreamID: stream} }, delivery, 0},
			{"Metrics", func() verifier.Env { return verifier.Env{Metrics: obs.NewRegistry()} }, delivery, 0},
			{"all fields", func() verifier.Env {
				return verifier.Env{
					StreamID: stream, MaxBuffered: len(delivery), Cache: newCache(), Sigs: newSigs(), Digests: memo,
					BatchQ: queue(2), Spans: sink(), Metrics: obs.NewRegistry(),
				}
			}, delivery, 0},
			{"MaxBuffered 1", func() verifier.Env { return verifier.Env{MaxBuffered: 1} }, starved, 0},
			{"MaxBuffered 1, BatchQ", func() verifier.Env { return verifier.Env{MaxBuffered: 1, BatchQ: queue(1 << 20)} }, delivery, 0},
		}
		for _, sh := range shapes {
			env := sh.env()
			fresh := runEnv(t, s, env, sh.delivery, clock, sh.resolveEvery)
			for _, capped := range []bool{false, true} {
				v := dirty(env.BatchQ != nil, capped)
				reset := runBuilt(t, func(env verifier.Env) (scheme.Verifier, error) { return v, v.Reset(env) },
					sh.env(), sh.delivery, clock, sh.resolveEvery)
				name := fmt.Sprintf("block %d after block %d (capped %v), %s", replay, block, capped, sh.name)
				if !slices.Equal(reset.order, fresh.order) || reset.stats != fresh.stats || reset.sunk != fresh.sunk ||
					reset.maxPending != fresh.maxPending {
					t.Errorf("%s: Reset authenticated %v (%d sunk), stats %+v\nNewVerifier authenticated %v (%d sunk), stats %+v",
						name, reset.order, reset.sunk, reset.stats, fresh.order, fresh.sunk, fresh.stats)
				}
				if !slices.Equal(reset.spans, fresh.spans) || !reflect.DeepEqual(reset.metrics, fresh.metrics) {
					t.Errorf("%s: Reset traced %d records and metrics %+v\nNewVerifier traced %d and %+v",
						name, len(reset.spans), reset.metrics, len(fresh.spans), fresh.metrics)
				}
			}
		}
	}
	if v := dirty(false, false); v.Reset(verifier.Env{MaxBuffered: -1}) == nil {
		t.Error("negative MaxBuffered should fail Reset")
	}
}

// withBadSignature puts a copy of the delivery's first signed packet, its
// signature bit-flipped, ahead of it.
func withBadSignature(delivery []arrival) []arrival {
	for i, a := range delivery {
		if len(a.p.Signature) > 0 && !fault.IsForgedPayload(a.p.Payload) {
			bad := *a.p
			bad.Signature = slices.Clone(a.p.Signature)
			bad.Signature[len(bad.Signature)-1] ^= 0x01
			return slices.Insert(slices.Clone(delivery), i, arrival{&bad, a.wire})
		}
	}
	return delivery
}

// graphVerifiable is the paper's condition (1) over the genuine delivered
// packets: an index authenticates iff it arrived and a path of arrived
// packets leads to it from an arrived signature. ok is false for schemes
// whose wire indices do not map onto graph vertices (TESLA).
func graphVerifiable(t *testing.T, s scheme.Scheme, pkts []*packet.Packet, delivery []arrival) (want []uint32, ok bool) {
	t.Helper()
	mapper, ok := s.(scheme.VertexMapper)
	if !ok {
		return nil, false
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	received := make([]bool, g.N()+1)
	rootArrived := false
	for _, a := range delivery {
		if fault.IsForgedPayload(a.p.Payload) {
			continue
		}
		if v, mapped := mapper.VertexOf(a.p.Index); mapped {
			received[v] = true
		}
		rootArrived = rootArrived || len(a.p.Signature) > 0
	}
	if !rootArrived {
		return nil, true
	}
	// VerifiableSet assumes the signature arrived, which was just checked.
	verifiable, err := g.VerifiableSet(received)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if v, mapped := mapper.VertexOf(p.Index); mapped && received[v] && verifiable[v] {
			want = append(want, p.Index)
		}
	}
	slices.Sort(want)
	return slices.Compact(want), true
}
