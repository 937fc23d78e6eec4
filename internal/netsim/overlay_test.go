package netsim

import (
	"reflect"
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/fault"
	"mcauth/internal/loss"
	"mcauth/internal/obs"
	"mcauth/internal/scheme"
	"mcauth/internal/scheme/emss"
)

// overlayScheme builds the emss scheme used across the overlay tests; its
// signature packet is index n, which is what ReliableIndices marks and
// what relays repair.
func overlayScheme(t *testing.T, n int) scheme.Scheme {
	t.Helper()
	s, err := emss.New(emss.Config{N: n, M: 2, D: 1}, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// losslessTree builds a depth-2 fanout-2 tree with lossless edges and a
// Bernoulli last hop — the topology whose overlay run must match the flat
// run bit-for-bit.
func losslessTree(t *testing.T, p float64) *loss.TreeModel {
	t.Helper()
	tree, err := loss.NewUniformTree(3, 2, 2, nil, bern(t, p))
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestOverlayFlatParity: with lossless tree edges and relays off, an
// overlay run is the flat topology with extra hops that drop nothing —
// per-receiver results must be bit-identical to Run with the same seed,
// including late joiners (same join-position draws) and sig retransmits.
func TestOverlayFlatParity(t *testing.T) {
	const n = 12
	s := overlayScheme(t, n)
	cfg := baseConfig(t, 0.25, 40)
	cfg.ReliableIndices = []uint32{n}
	cfg.LateJoiners = 5
	for _, retrans := range []int{0, 2} {
		cfg.SigRetransmits = retrans
		flat, err := Run(s, cfg, 1, testPayloads(n))
		if err != nil {
			t.Fatal(err)
		}
		over, err := RunOverlay(s, cfg, OverlayConfig{Tree: losslessTree(t, 0.25)}, 1, testPayloads(n))
		if err != nil {
			t.Fatal(err)
		}
		if over.WireCount != flat.WireCount {
			t.Fatalf("retrans=%d: wire count %d != flat %d", retrans, over.WireCount, flat.WireCount)
		}
		if !reflect.DeepEqual(over.PerReceiver, flat.PerReceiver) || over.TimeToAuth != flat.TimeToAuth {
			t.Fatalf("retrans=%d: overlay (relays off, lossless edges) diverges from flat run", retrans)
		}
	}
}

// lossyOverlay is the shared scenario for the repair/determinism tests:
// a correlated lossy edge feeding the first mid relay deterministically
// swallows both signature copies, and the retransmitted signature (empty
// reliable set) leaves the whole signature class subject to real last-hop
// loss — so both upstream and last-hop repairs have work to do.
func lossyOverlay(t *testing.T, relays bool) (scheme.Scheme, Config, OverlayConfig) {
	t.Helper()
	const n = 12
	s := overlayScheme(t, n)
	cfg := baseConfig(t, 0.2, 48)
	cfg.ReliableIndices = []uint32{n}
	cfg.SigRetransmits = 1 // 13 wires: the signature at 12 plus its copy at 13
	tree, err := loss.NewUniformTree(9, 2, 2, bern(t, 0.2), bern(t, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	// Edge 1 feeds the first mid relay: everything under it shares its
	// loss, and this trace drops exactly the two signature wires there.
	lost := make([]bool, n+1)
	lost[n-1], lost[n] = true, true
	tr, err := loss.NewTrace(lost)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.SetEdge(1, tr); err != nil {
		t.Fatal(err)
	}
	return s, cfg, OverlayConfig{Tree: tree, Relays: relays, RepairRTT: 30 * time.Millisecond}
}

// TestOverlayWorkerDeterminism: the full overlay result — receiver
// reports, relay reports, flags — must be byte-identical at any worker
// count.
func TestOverlayWorkerDeterminism(t *testing.T) {
	s, cfg, ocfg := lossyOverlay(t, true)
	cfg.LateJoiners = 6
	ocfg.Withhold = []int{4}
	var base *OverlayResult
	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		got, err := RunOverlay(s, cfg, ocfg, 1, testPayloads(12))
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = got
			continue
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d: overlay result diverges from workers=1", workers)
		}
	}
}

// TestOverlayRepairGain is the scenario the lab gate enforces: under a
// correlated lossy tree edge, relays serving signature repairs must raise
// the downstream authenticated fraction over passive forwarding.
func TestOverlayRepairGain(t *testing.T) {
	s, cfg, ocfgOff := lossyOverlay(t, false)
	off, err := RunOverlay(s, cfg, ocfgOff, 1, testPayloads(12))
	if err != nil {
		t.Fatal(err)
	}
	_, _, ocfgOn := lossyOverlay(t, true)
	on, err := RunOverlay(s, cfg, ocfgOn, 1, testPayloads(12))
	if err != nil {
		t.Fatal(err)
	}
	if got := off.TotalRepaired(); got != 0 {
		t.Fatalf("relays off but %d receiver repairs", got)
	}
	upstream := 0
	for _, rep := range on.Relays {
		upstream += rep.UpstreamRepaired
	}
	if upstream == 0 {
		t.Fatal("no upstream repairs; the lossy-edge scenario is vacuous")
	}
	if on.TotalRepaired() == 0 {
		t.Fatal("no last-hop repairs served")
	}
	if onAuth, offAuth := on.TotalAuthenticated(), off.TotalAuthenticated(); onAuth <= offAuth {
		t.Fatalf("repairs did not raise authentication: on=%d off=%d", onAuth, offAuth)
	}
	// Served-repair accounting: the per-relay tallies must equal the
	// receiver-side count.
	served := 0
	for _, rep := range on.Relays {
		if rep.ServedRepairs > 0 && !rep.Leaf {
			t.Fatalf("non-leaf relay %d served last-hop repairs", rep.Node)
		}
		served += rep.ServedRepairs
	}
	if served != on.TotalRepaired() {
		t.Fatalf("relay ServedRepairs %d != receiver Repaired total %d", served, on.TotalRepaired())
	}
}

// TestOverlayWithholding: a withholding relay serves no signature
// packets, its subtree's authentication collapses, and the peer-sampling
// audit flags it — and only it.
func TestOverlayWithholding(t *testing.T) {
	const n = 12
	s := overlayScheme(t, n)
	cfg := baseConfig(t, 0.1, 64)
	cfg.ReliableIndices = []uint32{n}
	tree, err := loss.NewUniformTree(5, 2, 2, nil, bern(t, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	ocfg := OverlayConfig{Tree: tree, Relays: true, Withhold: []int{1}}
	res, err := RunOverlay(s, cfg, ocfg, 1, testPayloads(n))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Flagged, []int{1}) {
		t.Fatalf("Flagged = %v, want [1]", res.Flagged)
	}
	// Node 1's whole subtree (mid relay 1, leaves 3 and 4) serves no
	// signature wire, but only the withholder itself gets flagged by this
	// audit round: its children look identical to victims of a dead edge,
	// and they *are* victims.
	if !res.Relays[1].Withheld || !res.Relays[1].Flagged {
		t.Fatalf("relay 1 report = %+v, want withheld and flagged", res.Relays[1])
	}
	for _, e := range []int{2, 5, 6} {
		if res.Relays[e].Flagged {
			t.Fatalf("healthy relay %d flagged", e)
		}
	}
	// Receivers under the withholder (leaves 3,4 = receivers r%4 in {0,1})
	// never authenticate; the healthy subtree does.
	var underAuth, healthyAuth int
	for r, rep := range res.PerReceiver {
		if r%4 < 2 {
			underAuth += rep.Stats.Authenticated
		} else {
			healthyAuth += rep.Stats.Authenticated
		}
	}
	if underAuth != 0 {
		t.Fatalf("withheld subtree authenticated %d packets without a signature", underAuth)
	}
	if healthyAuth == 0 {
		t.Fatal("healthy subtree authenticated nothing")
	}
	if got := reg.Counter("relay.withholding_flagged").Value(); got != 1 {
		t.Fatalf("relay.withholding_flagged = %d, want 1", got)
	}
}

// TestOverlayForgedRepairs is the adversarial invariant: a relay serving
// forged repairs from a poisoned store injects them downstream, the
// verifier rejects every one, and no forged payload ever authenticates.
func TestOverlayForgedRepairs(t *testing.T) {
	s, cfg, ocfg := lossyOverlay(t, true)
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	// Poison every leaf relay's store so all last-hop repairs are forged.
	ocfg.ForgeRepairs = []int{3, 4, 5, 6}
	res, err := RunOverlay(s, cfg, ocfg, 1, testPayloads(12))
	if err != nil {
		t.Fatal(err)
	}
	totals := res.FaultTotals()
	if totals.ForgedInjected == 0 {
		t.Fatal("no forged repairs injected; the scenario is vacuous")
	}
	if totals.ForgedAuthenticated != 0 {
		t.Fatalf("security invariant violated: %d forged repairs authenticated", totals.ForgedAuthenticated)
	}
	if totals.ForgedRejected == 0 {
		t.Fatal("verifier never explicitly rejected a forged repair")
	}
	if got := res.TotalRepaired(); got != 0 {
		t.Fatalf("poisoned repairs counted as genuine: Repaired=%d", got)
	}
	if reg.Counter("netsim.forged_injected").Value() == 0 {
		t.Fatal("netsim.forged_injected counter not populated")
	}
}

// TestOverlayValidation pins the overlay-specific configuration errors.
func TestOverlayValidation(t *testing.T) {
	const n = 8
	s := overlayScheme(t, n)
	cfg := baseConfig(t, 0.1, 4)
	tree := losslessTree(t, 0.1)
	bad := []OverlayConfig{
		{},                                   // no tree
		{Tree: tree, Withhold: []int{0}},     // source cannot withhold
		{Tree: tree, Withhold: []int{99}},    // out of range
		{Tree: tree, ForgeRepairs: []int{2}}, // forging needs relays
		{Tree: tree, Relays: true, ForgeRepairs: []int{0}}, // source cannot forge
	}
	for i, ocfg := range bad {
		if _, err := RunOverlay(s, cfg, ocfg, 1, testPayloads(n)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	faulted := cfg
	faulted.Faults = &fault.Config{CorruptRate: 0.1}
	if _, err := RunOverlay(s, faulted, OverlayConfig{Tree: tree}, 1, testPayloads(n)); err == nil {
		t.Error("overlay with a wire-fault injector should fail")
	}
}
