// Overlay fan-out: RunOverlay simulates the relay tier ROADMAP item 2
// calls for. The source multicasts one authenticated block down a
// loss.TreeModel of relays; each relay forwards what its feeding edge
// delivered, optionally serves NACK signature repairs from its local
// store (absorbing recovery traffic near the edge instead of at the
// signer), and peer-samples the others to flag signature withholding.
// Receivers attach round-robin to the leaf relays and run through the
// exact flat-netsim receiver loop, so with lossless tree edges and relays
// off an overlay run is bit-identical to Run — the conformance anchor
// that lets the overlay inherit the flat tier's validation against the
// analytic and Monte-Carlo layers.
//
// Determinism contract: the tree phase is sequential and draws nothing
// from the receiver RNGs; edge patterns come from the tree seed, the
// audit from a per-relay derived seed, and receiver streams are split
// from the run seed before the concurrent phase — so results are
// byte-identical at any worker count, at 10^5-10^6 receivers.
package netsim

import (
	"fmt"
	"time"

	"mcauth/internal/fault"
	"mcauth/internal/loss"
	"mcauth/internal/packet"
	"mcauth/internal/scheme"
	"mcauth/internal/stats"
)

// The relay.* metric names RunOverlay registers. relay.forwarded is the
// relay daemon's name too (serve.MetricRelayForwarded); the other four
// count what only the simulated tree does: NACK signature repairs
// upstream and to receivers, and the withholding audit.
const (
	metricRelayForwarded       = "relay.forwarded"
	metricRelayUpstreamRepairs = "relay.upstream_repairs"
	metricRelayReceiverRepairs = "relay.receiver_repairs"
	metricRelayWithheld        = "relay.withheld"
	metricRelayFlagged         = "relay.withholding_flagged"
)

// Overlay defaults: a 40ms NACK round trip is a continental-scale repair
// cost, and three peer samples already give a majority view in small
// trees.
const (
	defaultRepairRTT   = 40 * time.Millisecond
	defaultPeerSamples = 3
)

// OverlayConfig parameterizes the relay tier of an overlay run. The base
// Config supplies everything else; its Loss field is ignored (the tree's
// leaf model is the last hop) and its Faults field must be nil — the
// overlay's adversary is the relay itself (withholding, forged repairs),
// not the wire.
type OverlayConfig struct {
	// Tree is the relay topology with its per-edge loss processes and the
	// per-receiver last-hop model.
	Tree *loss.TreeModel
	// Relays enables the relay behaviors: upstream NACK signature repairs
	// between relays and last-hop repairs to receivers. Off, relays are
	// passive forwarders and the run measures raw tree loss.
	Relays bool
	// RepairRTT is one NACK round trip to the serving relay; 0 selects
	// the default. Each upstream repair a wire needed adds one RTT of
	// lateness that the whole subtree inherits.
	RepairRTT time.Duration
	// Withhold lists relay nodes that serve no signature-class packets
	// downstream — neither forwarded nor as repairs. The audit exists to
	// flag them.
	Withhold []int
	// PeerSamples is how many peers each relay samples for the
	// withholding audit; <= 0 selects the default.
	PeerSamples int
	// ForgeRepairs lists relay nodes whose repair stores are poisoned:
	// repairs they serve carry a fabricated payload under the genuine
	// header. The security invariant is that no such repair ever
	// authenticates downstream. Requires Relays.
	ForgeRepairs []int
}

// validate checks the overlay parameters against the tree.
func (o OverlayConfig) validate() error {
	if o.Tree == nil {
		return fmt.Errorf("netsim: overlay needs a tree")
	}
	nodes := o.Tree.Nodes()
	for _, e := range o.Withhold {
		if e < 1 || e >= nodes {
			return fmt.Errorf("netsim: withhold node %d out of [1,%d)", e, nodes)
		}
	}
	for _, e := range o.ForgeRepairs {
		if e < 1 || e >= nodes {
			return fmt.Errorf("netsim: forge-repairs node %d out of [1,%d)", e, nodes)
		}
	}
	if len(o.ForgeRepairs) > 0 && !o.Relays {
		return fmt.Errorf("netsim: forged repairs need relays enabled")
	}
	return nil
}

// RelayReport summarizes one relay node's run.
type RelayReport struct {
	Node   int
	Parent int  // -1 for the source
	Leaf   bool // receivers attach here
	// Received counts wire positions present in this relay's store after
	// its feeding edge and any upstream repairs.
	Received int
	// UpstreamRepaired counts signature wires this relay lost on its
	// feeding edge and recovered by NACKing its parent.
	UpstreamRepaired int
	// Forwarded counts wire positions this relay serves downstream; a
	// withholding relay excludes the signature class.
	Forwarded int
	// ServedRepairs counts last-hop signature repairs served to attached
	// receivers (leaf relays only).
	ServedRepairs int
	// Withheld echoes membership in OverlayConfig.Withhold.
	Withheld bool
	// Flagged reports whether the peer-sampling audit flagged this relay
	// as a withholder.
	Flagged bool
}

// OverlayResult extends the flat Result with the relay tier's view.
type OverlayResult struct {
	Result
	// Relays holds one report per tree node (index = node; node 0 is the
	// source and never repairs, withholds or gets flagged).
	Relays []RelayReport
	// Flagged lists the relay nodes the withholding audit flagged,
	// ascending.
	Flagged []int
}

// RunOverlay authenticates one block and simulates its fan-out through
// the relay tree to every receiver. cfg.Loss is ignored (the tree's leaf
// model is the last hop) and cfg.Faults must be nil; everything else
// (receivers, delay, timing, retransmits, late joiners, workers, tracer,
// metrics) keeps its flat-run meaning, except that the Forced root rule
// holds on the last hop only: a wire the tree never delivered to a
// receiver's relay cannot arrive; only relay repairs recover it.
func RunOverlay(s scheme.Scheme, cfg Config, ocfg OverlayConfig, blockID uint64, payloads [][]byte) (*OverlayResult, error) {
	if err := ocfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		return nil, fmt.Errorf("netsim: overlay runs take no wire-fault injector; the adversary is the relay")
	}
	leafModel := ocfg.Tree.LeafModel()
	vcfg := cfg
	vcfg.Loss = leafModel
	if vcfg.Loss == nil {
		vcfg.Loss = loss.Bernoulli{}
	}
	if err := vcfg.Validate(); err != nil {
		return nil, err
	}
	repairRTT := ocfg.RepairRTT
	if repairRTT <= 0 {
		repairRTT = defaultRepairRTT
	}
	peerSamples := ocfg.PeerSamples
	if peerSamples <= 0 {
		peerSamples = defaultPeerSamples
	}
	forging := len(ocfg.ForgeRepairs) > 0
	plan, err := prepareBlock(s, vcfg, blockID, payloads, forging)
	if err != nil {
		return nil, err
	}
	n := len(plan.pkts)

	// The signature class by wire position, copies included: what
	// NACK repairs recover and what a withholder suppresses.
	sigSet := make(map[uint32]bool, len(cfg.ReliableIndices))
	for _, idx := range cfg.ReliableIndices {
		sigSet[idx] = true
	}
	sigWire := make([]bool, n)
	for w, p := range plan.pkts {
		sigWire[w] = sigSet[p.Index]
	}

	nodes := ocfg.Tree.Nodes()
	withheld := make([]bool, nodes)
	for _, e := range ocfg.Withhold {
		withheld[e] = true
	}
	poisoned := make([]bool, nodes)
	for _, e := range ocfg.ForgeRepairs {
		poisoned[e] = true
	}

	// Tree phase, sequential and RNG-free with respect to the receiver
	// streams. offer[e] is the 1-based wire set node e offers downstream
	// (store minus the signature class when withholding); extra[e] is the
	// per-wire lateness its subtree inherits from upstream repairs.
	offer := make([][]bool, nodes)
	extra := make([][]time.Duration, nodes)
	reports := make([]RelayReport, nodes)
	scratch := make([]bool, n+1)
	for e := 0; e < nodes; e++ {
		store := make([]bool, n+1)
		lateness := make([]time.Duration, n)
		rep := RelayReport{Node: e, Parent: ocfg.Tree.Parent(e), Withheld: withheld[e]}
		if e == 0 {
			for i := 1; i <= n; i++ {
				store[i] = true
			}
			rep.Received = n
		} else {
			parent := ocfg.Tree.Parent(e)
			ocfg.Tree.EdgePatternInto(e, scratch)
			ps, px := offer[parent], extra[parent]
			for w := 0; w < n; w++ {
				lateness[w] = px[w]
				if ps[w+1] && scratch[w+1] {
					store[w+1] = true
					rep.Received++
					continue
				}
				if ocfg.Relays && !withheld[e] && sigWire[w] && ps[w+1] {
					// Lost on the feeding edge but present upstream: NACK
					// the parent for the signature packet. The repair lands
					// one RTT late, and the whole subtree inherits that
					// lateness for this wire.
					store[w+1] = true
					lateness[w] = px[w] + repairRTT
					rep.Received++
					rep.UpstreamRepaired++
				}
			}
		}
		sv := store
		if withheld[e] {
			sv = make([]bool, n+1)
			copy(sv, store)
			for w := 0; w < n; w++ {
				if sigWire[w] {
					sv[w+1] = false
				}
			}
		}
		for w := 0; w < n; w++ {
			if sv[w+1] {
				rep.Forwarded++
			}
		}
		offer[e] = sv
		extra[e] = lateness
		reports[e] = rep
	}

	// Withholding audit: each relay publishes whether it serves any
	// signature-class wire (in the served tier this is a block-root
	// exchange); every relay peer-samples the others and compares. A
	// relay is flagged when its parent serves the signature class, it
	// does not, and a majority of its sampled peers do — the withholding
	// *frontier*. Its descendants also serve nothing, but they are
	// victims, not culprits: their parent offers no signature class
	// either, which is observable from below and exonerates them. With
	// relays on, an honest relay whose parent serves always serves too
	// (the repair path guarantees it), so an unflagged signature gap
	// above a healthy relay is evidence of upstream loss, not malice.
	servesSig := func(e int) bool {
		for w := 0; w < n; w++ {
			if sigWire[w] && offer[e][w+1] {
				return true
			}
		}
		return false
	}
	var flagged []int
	if ocfg.Relays && len(cfg.ReliableIndices) > 0 && nodes > 2 {
		for e := 1; e < nodes; e++ {
			if servesSig(e) || !servesSig(ocfg.Tree.Parent(e)) {
				continue
			}
			rng := stats.NewRNG((cfg.Seed ^ 0x7065657273616d70) + uint64(e)*0x9E3779B97F4A7C15)
			serving := 0
			for k := 0; k < peerSamples; k++ {
				peer := 1 + rng.Intn(nodes-1)
				for peer == e {
					peer = 1 + rng.Intn(nodes-1)
				}
				if servesSig(peer) {
					serving++
				}
			}
			if serving*2 > peerSamples {
				reports[e].Flagged = true
				flagged = append(flagged, e)
			}
		}
	}

	// Forged twins for the poisoned-store scenario: the genuine header
	// and authentication material with a fabricated payload, so the
	// verifier's signature check — not any simulator shortcut — is what
	// rejects it.
	var forgedTwins []*packet.Packet
	if forging {
		forgedTwins = make([]*packet.Packet, n)
		for w, p := range plan.pkts {
			if !sigWire[w] {
				continue
			}
			fp := *p
			fp.Payload = fault.ForgedPayload(cfg.Seed + uint64(w)*0x9E3779B97F4A7C15)
			forgedTwins[w] = &fp
		}
	}

	leaves := ocfg.Tree.Leaves()
	leafIsLeaf := make([]bool, nodes)
	for _, lf := range leaves {
		leafIsLeaf[lf] = true
	}
	for e := range reports {
		reports[e].Leaf = leafIsLeaf[e]
	}
	leafPlan := make([]*repairPlan, len(leaves))
	for li, leafNode := range leaves {
		rp := &repairPlan{mask: offer[leafNode], extraDelay: extra[leafNode], rtt: repairRTT}
		if ocfg.Relays {
			avail := make([]bool, n)
			for w := 0; w < n; w++ {
				avail[w] = sigWire[w] && offer[leafNode][w+1]
			}
			rp.available = avail
			if poisoned[leafNode] {
				rp.forged = forgedTwins
			}
		}
		leafPlan[li] = rp
	}

	// Receivers attach to the leaves round-robin.
	flat, err := runReceivers(s, vcfg, plan, leafPlan)
	if err != nil {
		return nil, err
	}
	result := &OverlayResult{Result: *flat, Relays: reports, Flagged: flagged}
	for r := range result.PerReceiver {
		result.Relays[leaves[r%len(leaves)]].ServedRepairs += result.PerReceiver[r].Repaired
	}
	if cfg.Metrics != nil {
		var (
			forwarded = cfg.Metrics.Counter(metricRelayForwarded)
			upstream  = cfg.Metrics.Counter(metricRelayUpstreamRepairs)
			served    = cfg.Metrics.Counter(metricRelayReceiverRepairs)
			wh        = cfg.Metrics.Counter(metricRelayWithheld)
			fl        = cfg.Metrics.Counter(metricRelayFlagged)
		)
		for e := 1; e < nodes; e++ {
			rep := &result.Relays[e]
			forwarded.Add(int64(rep.Forwarded))
			upstream.Add(int64(rep.UpstreamRepaired))
			served.Add(int64(rep.ServedRepairs))
			if rep.Withheld {
				wh.Inc()
			}
			if rep.Flagged {
				fl.Inc()
			}
		}
	}
	return result, nil
}
