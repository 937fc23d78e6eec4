// Overlay mode: -overlay delivers the block through a relay fan-out tree
// (netsim.RunOverlay) instead of the flat topology. The cell's -p/-burst
// model becomes the per-receiver last hop; the first -lossyedges tree
// edges drop packets i.i.d. at -edgep, shared by their whole subtree —
// the correlated-loss regime where the analytic i.i.d. bound no longer
// predicts the measurement and the simulation is the source of truth.
// -summary writes a JSON digest that is byte-identical at any -workers
// setting, which is what ci.sh diffs to enforce the determinism contract
// at 10^5 receivers.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"mcauth/internal/catalog"
	"mcauth/internal/cli"
	"mcauth/internal/loss"
	"mcauth/internal/netsim"
)

// overlaySummary is the deterministic digest -summary writes: everything
// in it derives from seeded RNG streams and additive per-receiver counts,
// never from wall clocks or map iteration.
type overlaySummary struct {
	Scheme     string  `json:"scheme"`
	Receivers  int     `json:"receivers"`
	WireCount  int     `json:"wire_count"`
	Depth      int     `json:"depth"`
	Fanout     int     `json:"fanout"`
	EdgeP      float64 `json:"edge_p"`
	LossyEdges int     `json:"lossy_edges"`
	Relays     bool    `json:"relays"`
	Seed       uint64  `json:"seed"`

	Delivered        int     `json:"delivered"`
	Lost             int     `json:"lost"`
	Authenticated    int     `json:"authenticated"`
	AuthFraction     float64 `json:"auth_fraction"`
	MinQMin          float64 `json:"min_qmin"`
	UpstreamRepaired int     `json:"upstream_repaired"`
	ReceiverRepairs  int     `json:"receiver_repairs"`
	Flagged          []int   `json:"flagged,omitempty"`

	RelayReports []netsim.RelayReport `json:"relay_reports"`
}

// runOverlay is runFlat's counterpart for -overlay.
func runOverlay(o options, entry catalog.Entry, analytic string, cfg netsim.Config) error {
	s := entry.Scheme
	tree, err := loss.NewOverlayTree(o.seed, o.depth, o.fanout, o.lossyEdges, o.edgeP, cfg.Loss)
	if err != nil {
		return err
	}
	res, err := netsim.RunOverlay(s, cfg, netsim.OverlayConfig{
		Tree:      tree,
		Relays:    o.relays,
		RepairRTT: o.repairRTT,
	}, 1, payloads(s.BlockSize()))
	if err != nil {
		return err
	}

	sum := overlaySummary{
		Scheme:       s.Name(),
		Receivers:    o.receivers,
		WireCount:    res.WireCount,
		Depth:        o.depth,
		Fanout:       o.fanout,
		EdgeP:        o.edgeP,
		LossyEdges:   o.lossyEdges,
		Relays:       o.relays,
		Seed:         o.seed,
		Flagged:      res.Flagged,
		RelayReports: res.Relays,
	}
	for i := range res.PerReceiver {
		rep := &res.PerReceiver[i]
		sum.Delivered += rep.Delivered
		sum.Lost += rep.Lost
		sum.Authenticated += rep.Stats.Authenticated
	}
	sum.AuthFraction = float64(sum.Authenticated) / float64(o.receivers*res.WireCount)
	sum.MinQMin = res.MinAuthRatio(entry.Data)
	for _, rep := range res.Relays {
		sum.UpstreamRepaired += rep.UpstreamRepaired
		sum.ReceiverRepairs += rep.ServedRepairs
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "scheme\t%s\n", s.Name())
	fmt.Fprintf(w, "overlay tree\tdepth %d, fanout %d (%d relays, %d leaves)\n",
		o.depth, o.fanout, tree.Nodes()-1, len(tree.Leaves()))
	fmt.Fprintf(w, "edge loss\t%d edge(s) at p=%g; last hop %s\n", o.lossyEdges, o.edgeP, cfg.Loss.Name())
	fmt.Fprintf(w, "relays\t%v\n", o.relays)
	fmt.Fprintf(w, "receivers\t%d\n", o.receivers)
	fmt.Fprintf(w, "wire packets\t%d\n", res.WireCount)
	fmt.Fprintf(w, "delivered / lost\t%d / %d\n", sum.Delivered, sum.Lost)
	fmt.Fprintf(w, "authenticated\t%d (fraction %.4f)\n", sum.Authenticated, sum.AuthFraction)
	fmt.Fprintf(w, "upstream repairs\t%d\n", sum.UpstreamRepaired)
	fmt.Fprintf(w, "receiver repairs\t%d\n", sum.ReceiverRepairs)
	fmt.Fprintf(w, "withholding flags\t%v\n", sum.Flagged)
	fmt.Fprintf(w, "analytic q_min\t%s\n", analytic)
	fmt.Fprintf(w, "measured q_min\t%.4f\n", sum.MinQMin)
	if o.lossyEdges > 0 && o.edgeP > 0 {
		fmt.Fprintln(w, "note\tcorrelated tree-edge loss: the analytic bound assumes i.i.d. per-receiver loss and does not apply; the measurement is authoritative")
	}
	if err := w.Flush(); err != nil {
		return err
	}

	if o.summary != "" {
		if err := cli.WriteFile(o.summary, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(sum)
		}); err != nil {
			return fmt.Errorf("summary output: %w", err)
		}
	}
	return nil
}
