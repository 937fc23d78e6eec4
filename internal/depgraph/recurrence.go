package depgraph

import (
	"fmt"
	"math"
	"slices"
)

// Recurrence evaluates the paper's independence recurrence on the graph
// under i.i.d. loss at rate p: Equation (9), which for the augmented chain's
// graph is Equation (10). It multiplies the providers' failure terms as if
// they were independent; they share paths and are positively correlated, so
// the result upper-bounds the exact q_i (ExactAuthProbDelivery under the same
// i.i.d. loss). It fails for p outside [0,1], NaN included, and for a cyclic
// graph.
func (g *Graph) Recurrence(p float64) (AuthResult, error) {
	if !(p >= 0 && p <= 1) {
		return AuthResult{}, fmt.Errorf("depgraph: loss rate %v out of [0,1]", p)
	}
	order, err := g.TopoFromRoot()
	if err != nil {
		return AuthResult{}, err
	}
	res := AuthResult{Q: make([]float64, g.n+1)}
	g.RecurrenceInto(res.Q, order, p)
	res.QMin = slices.Min(res.Q[1:]) // the root's 1 included
	return res, nil
}

// RecurrenceInto evaluates the recurrence into q: q(root) = 1 and, vertex by
// vertex in order, q(v) = RecurrenceAt(q, v, p). q has N()+1 entries and is
// zero outside order; q[0] is set to NaN. order is a topological order from
// the root of g, or of a graph g was obtained from by removing edges:
// removing an edge invalidates no topological order, and a vertex the
// removal cut off from the root evaluates to exactly 0, the value Recurrence
// gives the unreachable, since it has no providers or only providers that
// are 0. p must lie in [0,1].
func (g *Graph) RecurrenceInto(q []float64, order []int, p float64) {
	q[0] = math.NaN()
	q[g.root] = 1
	for _, v := range order {
		if v != g.root {
			q[v] = g.RecurrenceAt(q, v, p)
		}
	}
}

// RecurrenceAt is the recurrence's step at a vertex v other than the root,
// from the values q holds for v's providers:
//
//	q(v) = 1 - Π_{u in in(v)} [1 - r(u) q(u)]
//
// where r(u) = 1-p is the provider's reception probability, except r(root)
// = 1: P_sign is assumed received, which reproduces the paper's boundary
// conditions (q = 1 for the packets the signature packet covers directly).
// The product is accumulated as a running union, c ← c + x(1-c) for each
// provider term x = r(u) q(u), which equals 1 - Π(1-x) without cancelling
// when every x is small (a long chain's q decays far below 1e-16). It runs
// over in(v) in its stored order, so re-evaluating v after its providers
// gives the bits RecurrenceInto gives — which lets a caller that changed
// only in(v) re-evaluate just v and what follows it in the order.
func (g *Graph) RecurrenceAt(q []float64, v int, p float64) float64 {
	c := 0.0
	for _, u := range g.in[v] {
		r := 1 - p
		if u == g.root {
			r = 1
		}
		x := r * q[u]
		c += x * (1 - c)
	}
	return c
}
