package construct

import (
	"fmt"
	"slices"

	"mcauth/internal/depgraph"
)

// Prune removes redundant edges from a graph while keeping every vertex's
// approximate authentication probability at or above the target — the
// "minimize the total number of edges subject to a q_min constraint"
// objective of Section 5, applied as a post-pass to any construction
// (including hand-designed or probabilistic graphs, which tend to
// over-provision).
//
// The pass is greedy: edges are repeatedly scanned in deterministic order
// and an edge is dropped whenever the graph still meets the constraint
// without it; the scan repeats until a fixed point. Reachability from the
// root is preserved (a removal that disconnects a vertex drives its q to 0
// and is rejected by the constraint check, for any target > 0).
func Prune(g *depgraph.Graph, c Constraint) (Plan, int, error) {
	if err := c.validate(); err != nil {
		return Plan{}, 0, err
	}
	if g == nil {
		return Plan{}, 0, fmt.Errorf("construct: nil graph")
	}
	if g.N() != c.N {
		return Plan{}, 0, fmt.Errorf("construct: graph has %d vertices, constraint says %d", g.N(), c.N)
	}
	work := g.Clone()
	// One topological order serves every trial below: a trial only removes
	// an edge, and a restored edge was in the graph the order came from.
	order, err := work.TopoFromRoot()
	if err != nil {
		return Plan{}, 0, err
	}
	q := make([]float64, work.N()+1)
	work.RecurrenceInto(q, order, c.P)
	if slices.Min(q[1:]) < c.TargetQMin {
		// Nothing to prune from an infeasible starting point; report
		// it honestly.
		plan, err := newPlan(work, c.P, c.TargetQMin)
		return plan, 0, err
	}
	// From here q always holds the recurrence of the current graph, and
	// every vertex meets the target (so every vertex is in order). Removing
	// (u, v) changes in(v) alone, so only v and what follows it in the
	// order can change. meetsFrom re-evaluates that suffix in order, so
	// each value is bit for bit what a full evaluation gives; at the first
	// vertex below target it restores what it overwrote and fails.
	pos := make([]int, work.N()+1)
	for k, v := range order {
		pos[v] = k
	}
	saved := make([]float64, len(order))
	meetsFrom := func(start int) bool {
		for k, v := range order[start:] {
			saved[k] = q[v]
			if q[v] = work.RecurrenceAt(q, v, c.P); q[v] < c.TargetQMin {
				for j, w := range order[start : start+k+1] {
					q[w] = saved[j]
				}
				return false
			}
		}
		return true
	}
	removed := 0
	for {
		removedThisPass := 0
		for _, e := range work.Edges() {
			if err := work.RemoveEdge(e[0], e[1]); err != nil {
				return Plan{}, 0, err
			}
			if meetsFrom(pos[e[1]]) {
				removed++
				removedThisPass++
				continue
			}
			// The edge is load-bearing: restore it.
			if err := work.AddEdge(e[0], e[1]); err != nil {
				return Plan{}, 0, err
			}
		}
		if removedThisPass == 0 {
			break
		}
	}
	plan, err := newPlan(work, c.P, c.TargetQMin)
	if err != nil {
		return Plan{}, 0, err
	}
	return plan, removed, nil
}
