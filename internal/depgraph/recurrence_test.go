package depgraph_test

import (
	"math"
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

// TestRecurrenceChainMatchesClosedForm: on a single path the recurrence is
// exact, q_i = (1-p)^(i-2), and it must stay so to relative precision deep
// in the chain, where q falls far below the spacing of doubles near 1.
func TestRecurrenceChainMatchesClosedForm(t *testing.T) {
	const n = 1000
	edges := make([][2]int, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	g, err := depgraph.New(n, 1, edges...)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.05, 0.3} {
		res, err := g.Recurrence(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 2; i <= n; i++ {
			want := math.Pow(1-p, float64(i-2))
			if math.Abs(res.Q[i]-want) > 1e-9*want {
				t.Fatalf("p=%v: Q[%d] = %v, want %v", p, i, res.Q[i], want)
			}
		}
		if want := math.Pow(1-p, n-2); math.Abs(res.QMin-want) > 1e-9*want {
			t.Errorf("p=%v: QMin = %v, want %v", p, res.QMin, want)
		}
	}
}
