// Designer: use the Section 5 construction toolkit to design a
// hash-chaining topology for a given network. Given a loss rate and a
// target minimum authentication probability, compare the greedy builder,
// the uniform-policy search, and probabilistic edge placement — then run
// the winning design as an actual scheme.
//
// Run with: go run ./examples/designer
package main

import (
	"fmt"
	"log"
	"time"

	"mcauth/internal/construct"
	"mcauth/internal/crypto"
	"mcauth/internal/depgraph"
	"mcauth/internal/scheme"
	"mcauth/internal/stats"
	"mcauth/internal/verifier"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	c := construct.Constraint{N: 80, P: 0.25, TargetQMin: 0.9, MaxOutDegree: 4}
	fmt.Printf("design goal: n=%d packets, loss p=%.2f, q_min >= %.2f, <=%d hashes/pkt\n\n",
		c.N, c.P, c.TargetQMin, c.MaxOutDegree)

	greedy, err := construct.Greedy(c)
	if err != nil {
		return err
	}
	fmt.Printf("greedy:        %.2f edges/pkt, achieves q_min=%.3f (met=%v)\n",
		greedy.EdgesPerPacket, greedy.QMin, greedy.Met)

	policy, m, d, err := construct.PolicySearch(c, 8, 4)
	if err != nil {
		return err
	}
	fmt.Printf("policy m=%d d=%d: %.2f edges/pkt, achieves q_min=%.3f (met=%v)\n",
		m, d, policy.EdgesPerPacket, policy.QMin, policy.Met)

	prob, rho, err := construct.Probabilistic(c, stats.NewRNG(7))
	if err != nil {
		return err
	}
	fmt.Printf("random rho=%.3f: %.2f edges/pkt, achieves q_min=%.3f (met=%v)\n\n",
		rho, prob.EdgesPerPacket, prob.QMin, prob.Met)

	// Turn the cheapest winning design into a runnable scheme and verify
	// a real block through it. The designed graphs are signature-first,
	// so the wire topology is the graph itself.
	best := greedy
	if policy.Met && policy.EdgesPerPacket < best.EdgesPerPacket {
		best = policy
	}
	topo := scheme.Topology{
		Name:  "designed",
		N:     best.Graph.N(),
		Root:  best.Graph.Root(),
		Edges: best.Graph.Edges(),
	}
	s, err := scheme.NewChained(topo, crypto.NewSignerFromString("designer"))
	if err != nil {
		return err
	}
	payloads := make([][]byte, c.N)
	for i := range payloads {
		payloads[i] = fmt.Appendf(nil, "designed-payload-%d", i)
	}
	pkts, err := s.Authenticate(1, payloads)
	if err != nil {
		return err
	}
	v, err := s.NewVerifier(verifier.Env{})
	if err != nil {
		return err
	}
	verified := 0
	for _, p := range pkts {
		events, err := v.Ingest(p, time.Now())
		if err != nil {
			return err
		}
		verified += len(events)
	}
	fmt.Printf("designed scheme verified %d/%d packets on a loss-free run\n", verified, c.N)

	// Cross-check the design against ground truth, not just the
	// approximation it was optimized for.
	mc, err := best.Graph.MonteCarloAuthProbInto(depgraph.BernoulliPatternInto(c.P), 20000, stats.NewRNG(99), depgraph.MCOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("Monte-Carlo q_min of the design at p=%.2f: %.3f (approx model said %.3f)\n",
		c.P, mc.QMin, best.QMin)
	return nil
}
