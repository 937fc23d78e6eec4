package depgraph_test

import (
	"testing"

	"mcauth/internal/depgraph"
	"mcauth/internal/stats"
)

// Property: the recurrence (the paper's independence model) upper-bounds the
// exact authentication probability on arbitrary forward DAGs — the break
// events of shared paths are positively correlated (FKG), so treating them
// as independent can only overestimate survival.
func TestRecurrenceUpperBoundsExactProperty(t *testing.T) {
	rng := stats.NewRNG(123)
	for trial := 0; trial < 30; trial++ {
		n := 8 + rng.Intn(6)
		var edges [][2]int
		for v := 2; v <= n; v++ {
			// Ensure reachability, then sprinkle extra edges.
			edges = append(edges, [2]int{v - 1, v})
			for u := 1; u < v-1; u++ {
				if rng.Bernoulli(0.25) {
					edges = append(edges, [2]int{u, v})
				}
			}
		}
		g, err := depgraph.New(n, 1, edges...)
		if err != nil {
			t.Fatal(err)
		}
		p := 0.1 + 0.5*rng.Float64()
		approx, err := g.Recurrence(p)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := g.ExactAuthProb(p)
		if err != nil {
			t.Fatal(err)
		}
		for v := 2; v <= n; v++ {
			if exact.Q[v] > approx.Q[v]+1e-9 {
				t.Fatalf("trial %d vertex %d: exact %v exceeds recurrence %v (n=%d p=%v)",
					trial, v, exact.Q[v], approx.Q[v], n, p)
			}
		}
	}
}
