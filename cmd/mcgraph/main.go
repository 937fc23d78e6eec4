// Command mcgraph dumps a scheme's dependence-graph: its static metrics
// (overhead, delay, buffers — the paper's Section 3 quantities), optional
// per-packet authentication probabilities, and Graphviz DOT output.
//
// Usage:
//
//	mcgraph -scheme emss -n 20 -m 2 -d 1 -p 0.2
//	mcgraph -scheme augchain -n 21 -a 3 -b 3 -dot > ac.dot
//	mcgraph -scheme emss -n 20 -export > design.json   # export, hand-edit...
//	mcgraph -topo design.json -q                       # ...and re-analyze
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"mcauth/internal/catalog"
	"mcauth/internal/cli"
	"mcauth/internal/construct"
	"mcauth/internal/crypto"
	"mcauth/internal/delay"
	"mcauth/internal/depgraph"
	"mcauth/internal/loss"
	"mcauth/internal/netsim"
	"mcauth/internal/obs"
	"mcauth/internal/scenario"
	"mcauth/internal/scheme"
	"mcauth/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mcgraph:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("mcgraph", flag.ContinueOnError)
	spec := cli.SchemeFlags(fs, "emss", 20, graphSchemes())
	var (
		p         = fs.Float64("p", 0.1, "loss probability for q_i estimation")
		dot       = fs.Bool("dot", false, "emit Graphviz DOT instead of metrics")
		topoPath  = fs.String("topo", "", "load a custom topology from a JSON file instead of -scheme")
		export    = fs.Bool("export", false, "emit the topology as JSON instead of metrics")
		pruneTo   = fs.Float64("prune", 0, "prune redundant edges while keeping q_min above this target (uses -p as the design loss rate)")
		perPacket = fs.Bool("q", false, "print per-packet q_i (exact; Monte-Carlo for a graph the exact evaluator cannot sweep)")
		trials    = fs.Int("trials", 20000, "Monte-Carlo trials when -q falls back to sampling")
		outCfg    cli.Config
	)
	outCfg.Flags(fs, cli.Help{
		Trace:    "replay one lossless block through the verifier and write its JSONL lifecycle trace to this file",
		Metrics:  "replay one lossless block and write verifier metrics",
		Profiles: true,
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	bern, err := loss.NewBernoulli(*p)
	if err != nil {
		return fmt.Errorf("-p: %w", err)
	}
	if *trials <= 0 {
		return fmt.Errorf("-trials %d must be positive", *trials)
	}
	out, err := cli.Open(outCfg)
	if err != nil {
		return err
	}
	defer out.Close() // a failed run still finishes its outputs
	signer := crypto.NewSignerFromString("mcgraph")
	var (
		s         scheme.Scheme
		signature []uint32
	)
	if *topoPath != "" {
		f, err := os.Open(*topoPath)
		if err != nil {
			return err
		}
		defer f.Close()
		topo, err := scheme.LoadTopology(f)
		if err != nil {
			return err
		}
		if s, err = scheme.NewChained(topo, signer); err != nil {
			return err
		}
		signature = []uint32{uint32(topo.Root)}
	} else {
		if spec.ID == "tesla" {
			return fmt.Errorf("scheme \"tesla\" is not offered: its split-vertex graph has no slot semantics for the Section 3 metrics (accepted: %s)",
				strings.Join(graphSchemes(), "|"))
		}
		entry, err := catalog.Build(*spec, signer)
		if err != nil {
			return err
		}
		s, signature = entry.Scheme, entry.Signature
	}
	if s, err = maybePrune(s, signer, *pruneTo, *p); err != nil {
		return err
	}
	if err := report(s, *dot, *export, *perPacket, bern, *trials); err != nil {
		return err
	}
	if out.Tracer != nil || out.Registry != nil {
		if err := replay(s, signature, out.Tracer, out.Registry); err != nil {
			return err
		}
	}
	return out.Close()
}

// graphSchemes is -scheme's accepted set: every catalogue scheme but TESLA,
// whose split-vertex graph carries no slot semantics for the Section 3
// metrics.
func graphSchemes() []string {
	return slices.DeleteFunc(catalog.IDs(), func(id string) bool { return id == "tesla" })
}

// maybePrune applies the Section 5 redundant-edge pruning pass when a
// target is given, rebuilding the scheme from the slimmed topology.
func maybePrune(s scheme.Scheme, signer crypto.Signer, target, p float64) (scheme.Scheme, error) {
	if target == 0 {
		return s, nil
	}
	g, err := s.Graph()
	if err != nil {
		return nil, err
	}
	plan, removed, err := construct.Prune(g, construct.Constraint{
		N:          g.N(),
		P:          p,
		TargetQMin: target,
	})
	if err != nil {
		return nil, err
	}
	if !plan.Met {
		return nil, fmt.Errorf("graph cannot meet q_min >= %v at p=%v (achieves %v)", target, p, plan.QMin)
	}
	fmt.Fprintf(os.Stderr, "pruned %d redundant edges (q_min %.4f >= %.4f)\n", removed, plan.QMin, target)
	return scheme.NewChained(scheme.Topology{
		Name:  s.Name() + "+pruned",
		N:     plan.Graph.N(),
		Root:  plan.Graph.Root(),
		Edges: plan.Graph.Edges(),
	}, signer)
}

// replay pushes one lossless, in-order block through the scheme's verifier
// with observability wired up, so the static graph view can be compared
// against the verifier's actual packet lifecycle: a one-receiver netsim run
// with no loss and no delay, so -trace/-metrics mean what they mean in
// mcsim. signature is the run's P_sign (catalog.Entry.Signature).
func replay(s scheme.Scheme, signature []uint32, tracer *obs.SpanSink, reg *obs.Registry) error {
	payloads := make([][]byte, s.BlockSize())
	for i := range payloads {
		payloads[i] = fmt.Appendf(nil, "payload-%06d", i)
	}
	e := catalog.Entry{Scheme: s, Signature: signature, SendInterval: time.Millisecond, Start: time.Unix(0, 0)}
	cfg, err := scenario.Config(e, 1, loss.Spec{}, delay.Constant{}, 0)
	if err != nil {
		return err
	}
	cfg.Workers, cfg.Tracer, cfg.Metrics = 1, tracer, reg
	if _, err := netsim.Run(s, cfg, 1, payloads); err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	return nil
}

// report renders the selected view of the scheme's graph.
func report(s scheme.Scheme, dot, export, perPacket bool, bern loss.Bernoulli, trials int) error {
	g, err := s.Graph()
	if err != nil {
		return err
	}
	if dot {
		return g.WriteDOT(os.Stdout, s.Name())
	}
	if export {
		topo, err := scheme.TopologyOf(s)
		if err != nil {
			return err
		}
		return scheme.SaveTopology(os.Stdout, topo)
	}

	metrics, err := g.ComputeMetrics(depgraph.DefaultSizes())
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "scheme\t%s\n", s.Name())
	fmt.Fprintf(w, "vertices / edges\t%d / %d\n", metrics.N, metrics.Edges)
	fmt.Fprintf(w, "root (P_sign)\t%d\n", g.Root())
	fmt.Fprintf(w, "avg hashes per packet\t%.3f\n", metrics.AvgHashesPerPkt)
	fmt.Fprintf(w, "max hashes per packet\t%d\n", metrics.MaxHashesPerPkt)
	fmt.Fprintf(w, "overhead (bytes/pkt)\t%.1f\n", metrics.OverheadBytes)
	fmt.Fprintf(w, "max receiver delay (slots)\t%d\n", metrics.MaxDelaySlots)
	fmt.Fprintf(w, "hash buffer (pkts)\t%d\n", metrics.HashBufferPkts)
	fmt.Fprintf(w, "message buffer (pkts)\t%d\n", metrics.MsgBufferPkts)
	fmt.Fprintf(w, "unreachable vertices\t%d\n", metrics.UnreachableCount)
	if err := w.Flush(); err != nil {
		return err
	}
	if !perPacket {
		return nil
	}

	by := "exact"
	res, err := g.ExactAuthProbDelivery(depgraph.Delivery{Channel: bern.Channel()})
	if errors.Is(err, depgraph.ErrFrontier) {
		by = fmt.Sprintf("monte-carlo, %d trials", trials)
		res, err = g.MonteCarloAuthProbInto(loss.PatternInto(bern), trials, stats.NewRNG(1), depgraph.MCOptions{})
	}
	if err != nil {
		return err
	}
	fmt.Printf("\nper-packet q_i at p=%.3f (q_min=%.4f, %s):\n", bern.P, res.QMin, by)
	w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "packet\tq_i\tshortest path\tdisjoint paths")
	dists := g.ShortestPathLengths()
	for i := 1; i <= g.N(); i++ {
		k, err := g.VertexDisjointPaths(i)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "P%d\t%.4f\t%d\t%d\n", i, res.Q[i], dists[i], k)
	}
	return w.Flush()
}
