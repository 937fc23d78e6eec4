package depgraph

import (
	"math"
	"reflect"
	"testing"

	"mcauth/internal/stats"
)

// mcTestGraph builds an EMSS-like chain over n packets rooted at n: each
// packet carries hashes to offsets 1 and 2 toward the root.
func mcTestGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g, err := New(n, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		g.MustAddEdge(i+1, i)
		if i+2 <= n {
			g.MustAddEdge(i+2, i)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

// sameAuthResult is bit-exact equality over AuthResult, except that NaN
// compares equal to NaN (Q[0] is NaN by construction, and DeepEqual would
// reject it).
func sameAuthResult(a, b AuthResult) bool {
	if a.QMin != b.QMin ||
		!reflect.DeepEqual(a.ReceivedCounts, b.ReceivedCounts) ||
		!reflect.DeepEqual(a.VerifiedCounts, b.VerifiedCounts) ||
		len(a.Q) != len(b.Q) {
		return false
	}
	for i := range a.Q {
		if math.IsNaN(a.Q[i]) && math.IsNaN(b.Q[i]) {
			continue
		}
		if a.Q[i] != b.Q[i] {
			return false
		}
	}
	return true
}

// TestMonteCarloParallelDeterminism is the shard-plan determinism contract:
// for a fixed seed and trial count, the merged AuthResult is bit-identical
// at workers = 1, 2 and 8 — counts, Q values and QMin alike.
func TestMonteCarloParallelDeterminism(t *testing.T) {
	g := mcTestGraph(t, 64)
	for _, seed := range []uint64{1, 7, 12345} {
		for _, trials := range []int{100, 1000, 1537} {
			baseline, err := g.MonteCarloAuthProbInto(
				BernoulliPatternInto(0.25), trials, stats.NewRNG(seed), MCOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				got, err := g.MonteCarloAuthProbInto(
					BernoulliPatternInto(0.25), trials, stats.NewRNG(seed), MCOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !sameAuthResult(got, baseline) {
					t.Fatalf("seed %d trials %d: workers=%d result differs from workers=1",
						seed, trials, workers)
				}
			}
		}
	}
}

// TestMonteCarloCallerRNGAdvancesIdentically checks that the caller's
// generator is advanced only by the sequential shard-plan derivation, so a
// caller drawing from it afterwards is unaffected by the worker count.
func TestMonteCarloCallerRNGAdvancesIdentically(t *testing.T) {
	g := mcTestGraph(t, 16)
	after := make([]uint64, 0, 3)
	for _, workers := range []int{1, 2, 8} {
		rng := stats.NewRNG(9)
		if _, err := g.MonteCarloAuthProbInto(
			BernoulliPatternInto(0.2), 3000, rng, MCOptions{Workers: workers}); err != nil {
			t.Fatal(err)
		}
		after = append(after, rng.Uint64())
	}
	if after[0] != after[1] || after[0] != after[2] {
		t.Fatalf("caller RNG state depends on worker count: %v", after)
	}
}

func TestMonteCarloShardSizeIsPartOfThePlan(t *testing.T) {
	g := mcTestGraph(t, 32)
	a, err := g.MonteCarloAuthProbInto(BernoulliPatternInto(0.2), 4096, stats.NewRNG(5), MCOptions{ShardSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.MonteCarloAuthProbInto(BernoulliPatternInto(0.2), 4096, stats.NewRNG(5), MCOptions{ShardSize: 256, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !sameAuthResult(a, b) {
		t.Fatal("same shard size, different workers: results differ")
	}
	// Total trials always land where they should regardless of plan.
	total := 0
	for i := 1; i <= g.N(); i++ {
		if a.ReceivedCounts[i] > total {
			total = a.ReceivedCounts[i]
		}
	}
	if total > 4096 {
		t.Fatalf("received count %d exceeds trial budget", total)
	}
}

func TestVerifiableSetIntoMatchesVerifiableSet(t *testing.T) {
	g := mcTestGraph(t, 24)
	rng := stats.NewRNG(3)
	pattern := bernoulliTrial(0.4)
	verifiable := make([]bool, g.N()+1)
	var queue []int
	for trial := 0; trial < 50; trial++ {
		received := make([]bool, g.N()+1)
		pattern(rng, received)
		received[g.Root()] = true
		want, err := g.VerifiableSet(received)
		if err != nil {
			t.Fatal(err)
		}
		queue, err = g.VerifiableSetInto(received, verifiable, queue)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(verifiable, want) {
			t.Fatalf("trial %d: Into result differs", trial)
		}
	}
	// Length validation.
	if _, err := g.VerifiableSetInto(make([]bool, 3), verifiable, nil); err == nil {
		t.Fatal("expected error for short received slice")
	}
	if _, err := g.VerifiableSetInto(make([]bool, g.N()+1), make([]bool, 2), nil); err == nil {
		t.Fatal("expected error for short verifiable slice")
	}
}

func TestMonteCarloIntoValidation(t *testing.T) {
	g := mcTestGraph(t, 8)
	rng := stats.NewRNG(1)
	if _, err := g.MonteCarloAuthProbInto(BernoulliPatternInto(0.1), 0, rng, MCOptions{}); err == nil {
		t.Fatal("expected error for zero trials")
	}
	if _, err := g.MonteCarloAuthProbInto(nil, 10, rng, MCOptions{}); err == nil {
		t.Fatal("expected error for nil pattern")
	}
	// Estimates stay sane: q values in [0,1] where defined.
	res, err := g.MonteCarloAuthProbInto(BernoulliPatternInto(0.2), 500, rng, MCOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= g.N(); i++ {
		if !math.IsNaN(res.Q[i]) && (res.Q[i] < 0 || res.Q[i] > 1) {
			t.Fatalf("q[%d] = %v out of [0,1]", i, res.Q[i])
		}
	}
}
