// Package construct implements Section 5 of the paper: using
// dependence-graphs as a *design* tool. The objective is a graph with the
// minimum number of edges in which every vertex is reachable from P_sign
// with enough path redundancy to meet a target minimum authentication
// probability under a given loss rate.
//
// Three of the paper's suggested approaches are implemented:
//
//   - Greedy: start from a spanning chain and repeatedly reinforce the
//     currently weakest vertex with one more edge until the target holds.
//   - Policy search (the paper's dynamic-programming framing): search the
//     space of uniform periodic policies (m hashes per packet at spacing d)
//     for the cheapest policy meeting the constraint — a "simple policy
//     suitable for online constructions".
//   - Probabilistic: connect each vertex to earlier vertices independently
//     with probability rho, binary-searching the cheapest rho.
//
// Graphs are scored with the paper's own evaluation model: the
// independence recurrence of Equation (9) on the dependence graph,
// (*depgraph.Graph).Recurrence. Greedy's incremental build takes the same
// recurrence's step, (*depgraph.Graph).RecurrenceAt, after every edge it
// adds; its finished plan is scored again by Recurrence.
package construct

import (
	"fmt"

	"mcauth/internal/depgraph"
	"mcauth/internal/stats"
)

// Constraint is the design requirement.
type Constraint struct {
	// N is the block size; the root is vertex 1 (signature-first gives
	// zero receiver delay, the regime Section 5 discusses; reverse the
	// send order for signature-last).
	N int
	// P is the design loss rate.
	P float64
	// TargetQMin is the required minimum authentication probability
	// under the approximate evaluation model.
	TargetQMin float64
	// MaxOutDegree caps the hashes any single packet may carry (0 means
	// unlimited). Without a cap the optimum degenerates to a star on
	// the signature packet, which just reinvents per-packet signatures'
	// bandwidth profile.
	MaxOutDegree int
}

// validate checks the constraint.
func (c Constraint) validate() error {
	if c.N < 2 {
		return fmt.Errorf("construct: block size %d must be >= 2", c.N)
	}
	if !(c.P >= 0 && c.P < 1) { // spelled so that NaN fails
		return fmt.Errorf("construct: loss rate %v out of [0,1)", c.P)
	}
	if !(c.TargetQMin > 0 && c.TargetQMin <= 1) {
		return fmt.Errorf("construct: target q_min %v out of (0,1]", c.TargetQMin)
	}
	if c.MaxOutDegree < 0 {
		return fmt.Errorf("construct: max out-degree %d must be >= 0", c.MaxOutDegree)
	}
	return nil
}

// allowsEdgeFrom reports whether u may carry one more hash.
func (c Constraint) allowsEdgeFrom(g *depgraph.Graph, u int) bool {
	return c.MaxOutDegree == 0 || g.OutDegree(u) < c.MaxOutDegree
}

// Plan is the outcome of a construction.
type Plan struct {
	Graph *depgraph.Graph
	// QMin is the achieved minimum probability under the recurrence.
	QMin float64
	// EdgesPerPacket is the overhead |E|/n the plan costs.
	EdgesPerPacket float64
	// Met reports whether the target was achieved.
	Met bool
}

func newPlan(g *depgraph.Graph, p float64, target float64) (Plan, error) {
	res, err := g.Recurrence(p)
	if err != nil {
		return Plan{}, err
	}
	return Plan{
		Graph:          g,
		QMin:           res.QMin,
		EdgesPerPacket: float64(g.NumEdges()) / float64(g.N()),
		Met:            res.QMin >= target,
	}, nil
}

// Greedy builds a graph by a forward sweep — the paper's "start with a
// tree and add edges in each subsequent level until the constraints are
// satisfied": each vertex in send order is given edges from its strongest
// (highest-q, nearest) available predecessors until its own q meets the
// target, so every later vertex can draw on already-strong providers. Only
// forward edges (lower to higher index) are placed, preserving the
// zero-receiver-delay property Section 5 calls out.
func Greedy(c Constraint) (Plan, error) {
	if err := c.validate(); err != nil {
		return Plan{}, err
	}
	g, err := depgraph.New(c.N, 1)
	if err != nil {
		return Plan{}, err
	}
	q := make([]float64, c.N+1)
	q[1] = 1
	for v := 2; v <= c.N; v++ {
		// q[v] is 0 until v has a provider, below any valid target.
		for q[v] < c.TargetQMin {
			best := 0
			bestScore := -1.0
			for u := v - 1; u >= 1; u-- {
				if g.HasEdge(u, v) || !c.allowsEdgeFrom(g, u) {
					continue
				}
				if q[u] > bestScore {
					best, bestScore = u, q[u]
				}
			}
			if best == 0 {
				break // saturated; leave v below target
			}
			if err := g.AddEdge(best, v); err != nil {
				return Plan{}, err
			}
			q[v] = g.RecurrenceAt(q, v, c.P)
			if g.InDegree(v) >= v-1 {
				break // every predecessor is already a parent
			}
		}
		// Ensure reachability even when saturated: fall back to the
		// chain edge.
		if g.InDegree(v) == 0 {
			if err := g.AddEdge(v-1, v); err != nil {
				return Plan{}, err
			}
			q[v] = g.RecurrenceAt(q, v, c.P)
		}
	}
	return newPlan(g, c.P, c.TargetQMin)
}

// PolicySearch finds the cheapest uniform periodic policy (m edges per
// packet at spacing d) meeting the constraint, mirroring the paper's
// dynamic-programming formulation whose optimum over this policy class is
// a simple online rule. It tries m = 1.. up to maxM and d = 1..maxD and
// returns the first (fewest-edges) policy that meets the target, realized
// as a concrete graph.
func PolicySearch(c Constraint, maxM, maxD int) (Plan, int, int, error) {
	if err := c.validate(); err != nil {
		return Plan{}, 0, 0, err
	}
	if maxM < 1 || maxD < 1 {
		return Plan{}, 0, 0, fmt.Errorf("construct: maxM=%d, maxD=%d must be >= 1", maxM, maxD)
	}
	for m := 1; m <= maxM; m++ {
		for d := 1; d <= maxD; d++ {
			if m*d >= c.N {
				continue
			}
			g, err := policyGraph(c.N, m, d)
			if err != nil {
				return Plan{}, 0, 0, err
			}
			plan, err := newPlan(g, c.P, c.TargetQMin)
			if err != nil {
				return Plan{}, 0, 0, err
			}
			if plan.Met {
				return plan, m, d, nil
			}
		}
	}
	return Plan{}, 0, 0, fmt.Errorf("construct: no policy with m <= %d, d <= %d meets q_min >= %v at p=%v",
		maxM, maxD, c.TargetQMin, c.P)
}

// policyGraph realizes the uniform policy as a signature-first graph:
// vertex v is covered by vertices v-d, v-2d, ..., v-md (clamped to the
// root).
func policyGraph(n, m, d int) (*depgraph.Graph, error) {
	g, err := depgraph.New(n, 1)
	if err != nil {
		return nil, err
	}
	for v := 2; v <= n; v++ {
		for k := 1; k <= m; k++ {
			u := v - k*d
			if u < 1 {
				u = 1
			}
			if !g.HasEdge(u, v) {
				if err := g.AddEdge(u, v); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// Probabilistic connects each vertex v to every earlier vertex with
// probability rho and binary-searches the smallest rho whose realized graph
// meets the constraint. Vertices left unreachable by the random draw are
// patched with a direct chain edge (the paper notes such vertices are
// "negligibly small" in number; patching keeps Definition 1's reachability
// requirement).
func Probabilistic(c Constraint, rng *stats.RNG) (Plan, float64, error) {
	if err := c.validate(); err != nil {
		return Plan{}, 0, err
	}
	if rng == nil {
		return Plan{}, 0, fmt.Errorf("construct: nil rng")
	}
	lo, hi := 0.0, 1.0
	var (
		bestPlan Plan
		bestRho  float64
		found    bool
	)
	for iter := 0; iter < 20; iter++ {
		rho := (lo + hi) / 2
		g, err := randomGraph(c.N, rho, rng)
		if err != nil {
			return Plan{}, 0, err
		}
		plan, err := newPlan(g, c.P, c.TargetQMin)
		if err != nil {
			return Plan{}, 0, err
		}
		if plan.Met {
			bestPlan, bestRho, found = plan, rho, true
			hi = rho
		} else {
			lo = rho
		}
	}
	if !found {
		g, err := randomGraph(c.N, 1, rng)
		if err != nil {
			return Plan{}, 0, err
		}
		plan, err := newPlan(g, c.P, c.TargetQMin)
		if err != nil {
			return Plan{}, 0, err
		}
		return plan, 1, nil
	}
	return bestPlan, bestRho, nil
}

func randomGraph(n int, rho float64, rng *stats.RNG) (*depgraph.Graph, error) {
	// Collect the flips, then build once: flat rows, not one reallocation
	// per AddEdge. The edges number rho·n(n-1)/2 on average with a standard
	// deviation below n/2.8, so n spare slots make a regrowth rare.
	edges := make([][2]int, 0, int(rho*float64(n*(n-1)/2))+n)
	edge := stats.NewCoin(rho)
	for v := 2; v <= n; v++ {
		for u := 1; u < v; u++ {
			if rng.Flip(edge) {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	g, err := depgraph.New(n, 1, edges...)
	if err != nil {
		return nil, err
	}
	// Patch unreachable vertices with a chain edge so Definition 1's
	// reachability property holds.
	for _, v := range g.Unreachable() {
		if !g.HasEdge(v-1, v) {
			if err := g.AddEdge(v-1, v); err != nil {
				return nil, err
			}
		}
	}
	// Patching may still leave chains of unreachable vertices; repeat
	// until closed (at most n rounds, usually zero).
	for len(g.Unreachable()) > 0 {
		fixed := false
		for _, v := range g.Unreachable() {
			if v > 1 && !g.HasEdge(v-1, v) {
				if err := g.AddEdge(v-1, v); err != nil {
					return nil, err
				}
				fixed = true
			}
		}
		if !fixed {
			break
		}
	}
	return g, nil
}
