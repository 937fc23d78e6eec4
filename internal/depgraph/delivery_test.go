package depgraph_test

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"mcauth/internal/catalog"
	"mcauth/internal/crypto"
	"mcauth/internal/depgraph"
	"mcauth/internal/loss"
	"mcauth/internal/stats"
)

// deliveryGraphs are every catalogue scheme's graph the exact evaluator
// sweeps, and the random graphs of
// TestExactChannelMatchesEnumerationOnRandomDAGs, drawn from the same seed.
func deliveryGraphs(t *testing.T) map[string]*depgraph.Graph {
	t.Helper()
	graphs := map[string]*depgraph.Graph{}
	for _, id := range catalog.IDs() {
		e, err := catalog.Build(catalog.Spec{ID: id, N: 14, M: 2, D: 1, A: 3, B: 2, Lag: 2,
			Interval: time.Millisecond, Seed: []byte("delivery")},
			crypto.NewSignerFromString("delivery"))
		if err != nil {
			t.Fatal(err)
		}
		g, err := e.Scheme.Graph()
		if err != nil {
			t.Fatal(err)
		}
		graphs[id] = g
	}
	rng := stats.NewRNG(2003)
	for trial := 0; trial < 60; trial++ {
		n := 6 + rng.Intn(13)
		root := 1
		if trial%2 == 1 {
			root = n
		}
		graphs[fmt.Sprintf("random%d", trial)] = randomDAG(t, rng, n, root, 2+rng.Intn(5))
	}
	return graphs
}

func exactUnder(t *testing.T, g *depgraph.Graph, ch depgraph.Channel, root depgraph.Root) (depgraph.AuthResult, bool) {
	t.Helper()
	res, err := g.ExactAuthProbDelivery(depgraph.Delivery{Channel: ch, Root: root})
	if errors.Is(err, depgraph.ErrFrontier) {
		return res, false
	}
	if err != nil {
		t.Fatal(err)
	}
	return res, true
}

// TestRootRulesUnderOneState: under a one-state channel the root's slot is
// independent of every other packet, so conditioning on the root arriving
// and forcing it give the same q_i, and Copies(k) scales every other
// packet's q_i by the probability 1 - p^(k+1) that some copy arrives.
func TestRootRulesUnderOneState(t *testing.T) {
	swept := 0
	for name, g := range deliveryGraphs(t) {
		for _, p := range []float64{0.05, 0.3, 0.7} {
			ch := loss.Bernoulli{P: p}.Channel()
			forced, ok := exactUnder(t, g, ch, depgraph.Forced)
			if !ok {
				continue
			}
			swept++
			conditioned, _ := exactUnder(t, g, ch, depgraph.Conditioned)
			for i := 1; i <= g.N(); i++ {
				if d := math.Abs(forced.Q[i] - conditioned.Q[i]); d > 1e-12 {
					t.Errorf("%s p=%v: Q[%d] forced %v, conditioned %v", name, p, i, forced.Q[i], conditioned.Q[i])
				}
			}
			for _, k := range []int{0, 2} {
				copies, _ := exactUnder(t, g, ch, depgraph.Copies(k))
				arrive := 1 - math.Pow(p, float64(k+1))
				for i := 1; i <= g.N(); i++ {
					want := forced.Q[i] * arrive
					if i == g.Root() {
						want = 1
					}
					if d := math.Abs(copies.Q[i] - want); d > 1e-12 {
						t.Errorf("%s p=%v Copies(%d): Q[%d] = %v, want %v", name, p, k, i, copies.Q[i], want)
					}
				}
			}
		}
	}
	if swept < 3*60 {
		t.Errorf("only %d (graph, p) cells swept exactly", swept)
	}
}

// TestRootRulesMonteCarloMatchesExact holds the Monte-Carlo sampler's
// root rules to the exact sweep's under bursty loss, for a root first and a
// root last in send order, where every rule gives a different q_i.
func TestRootRulesMonteCarloMatchesExact(t *testing.T) {
	ge, err := loss.NewBursty(0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 40000
	for _, id := range []string{"rohatgi", "emss"} {
		g := schemeGraph(t, id, 12, 2, 1)
		for _, root := range []depgraph.Root{depgraph.Forced, depgraph.Conditioned, depgraph.Copies(0), depgraph.Copies(2)} {
			exact, ok := exactUnder(t, g, ge.Channel(), root)
			if !ok {
				t.Fatalf("%s: no exact sweep", id)
			}
			mc, err := g.MonteCarloAuthProbInto(ge.SampleLanes, trials, stats.NewRNG(uint64(root)+9), depgraph.MCOptions{Root: root})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= g.N(); i++ {
				n := float64(mc.ReceivedCounts[i])
				tol := 4*math.Sqrt(exact.Q[i]*(1-exact.Q[i])/n) + 1e-9
				if d := math.Abs(mc.Q[i] - exact.Q[i]); d > tol {
					t.Errorf("%s root rule %d: Q[%d] Monte-Carlo %.4f, exact %.4f (Δ %.4f > %.4f)",
						id, root, i, mc.Q[i], exact.Q[i], d, tol)
				}
			}
		}
	}
}
