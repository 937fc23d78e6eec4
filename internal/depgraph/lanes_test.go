package depgraph

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"mcauth/internal/stats"
)

// laneTestGraph draws graph number i of the differential suite: the root
// first, last or anywhere; edges in both send directions; sparse enough that
// some vertices come out unreachable; and, on odd i, no rank constraint, so
// AddEdge's tolerated cycles occur (a cycle never includes the root, which
// takes no in-edge).
func laneTestGraph(t *testing.T, rng *stats.RNG, i int) *Graph {
	t.Helper()
	n := 2 + rng.Intn(39)
	root := [3]int{1, n, 1 + rng.Intn(n)}[i%3]
	g, err := New(n, root)
	if err != nil {
		t.Fatal(err)
	}
	rank := make([]int, n+1)
	for v := range rank {
		rank[v] = rng.Intn(n)
	}
	density := 0.5 + 2.5*rng.Float64() // expected out-degree
	for u := 1; u <= n; u++ {
		for v := 1; v <= n; v++ {
			if v == u || v == root || !rng.Bernoulli(density/float64(n)) {
				continue
			}
			if i%2 == 0 && u != root && rank[u] >= rank[v] {
				continue // acyclic half: edges go up the rank only
			}
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// TestVerifiableLanesMatchScalar is the lane kernel's differential test:
// each of the 64 lanes of verifiableLanes equals VerifiableSetInto on that
// lane's loss pattern, on acyclic and cyclic graphs alike, and a lane masked
// out of the root's word (a short last group) comes back empty.
func TestVerifiableLanesMatchScalar(t *testing.T) {
	rng := stats.NewRNG(0x1a9e5)
	var cyclic, unrooted int
	for i := 0; i < 240; i++ {
		g := laneTestGraph(t, rng, i)
		order, topological := g.orderFromRoot()
		if !topological {
			cyclic++
			if g.checkAcyclic() == nil {
				t.Fatalf("graph %d: an acyclic graph got no topological order", i)
			}
		}
		if len(order) < g.n {
			unrooted++
		}
		recv := make([]uint64, g.n+1)
		for v := range recv {
			recv[v] = rng.Uint64() | rng.Uint64() // three lanes in four arrive
		}
		group := laneTrials
		if i%4 != 0 {
			group = 1 + rng.Intn(laneTrials)
		}
		recv[g.root] = ^uint64(0) >> (laneTrials - group)
		ver := make([]uint64, g.n+1)
		for v := range ver {
			ver[v] = rng.Uint64() // the kernel must overwrite, not accumulate
		}
		g.verifiableLanes(order, topological, recv, ver)

		received, want := make([]bool, g.n+1), make([]bool, g.n+1)
		var queue []int
		for lane := 0; lane < laneTrials; lane++ {
			for v := 1; v <= g.n; v++ {
				received[v] = recv[v]>>lane&1 == 1
			}
			if lane < group {
				queue, _ = g.VerifiableSetInto(received, want, queue)
			} else {
				clear(want)
			}
			for v := 1; v <= g.n; v++ {
				if got := ver[v]>>lane&1 == 1; got != want[v] {
					t.Fatalf("graph %d (n=%d root=%d topological=%v group=%d) lane %d: vertex %d verifiable = %v, scalar says %v",
						i, g.n, g.root, topological, group, lane, v, got, want[v])
				}
			}
		}
	}
	if cyclic < 20 || unrooted < 20 {
		t.Errorf("suite drew %d cyclic graphs and %d with unreachable vertices; want at least 20 of each", cyclic, unrooted)
	}
}

// scalarMonteCarlo is the trial loop MonteCarloAuthProbInto had before it
// went word-parallel: the same shard plan, one []bool search per trial.
func scalarMonteCarlo(g *Graph, pattern func(*stats.RNG, []bool), trials, shardSize int, rng *stats.RNG) (recv, ver []int) {
	var shards []mcShard
	for remaining := trials; remaining > 0; remaining -= shardSize {
		shards = append(shards, mcShard{rng: rng.Split(), trials: min(shardSize, remaining)})
	}
	recv, ver = make([]int, g.n+1), make([]int, g.n+1)
	received, verifiable := make([]bool, g.n+1), make([]bool, g.n+1)
	var queue []int
	for _, sh := range shards {
		for trial := 0; trial < sh.trials; trial++ {
			pattern(sh.rng, received)
			received[g.root] = true
			queue, _ = g.VerifiableSetInto(received, verifiable, queue)
			for i := 1; i <= g.n; i++ {
				if received[i] {
					recv[i]++
					if verifiable[i] {
						ver[i]++
					}
				}
			}
		}
	}
	return recv, ver
}

// TestMonteCarloMatchesScalarLoop runs the estimator on a per-trial sampler
// (through PerTrial) and the scalar loop it replaced from equal generators
// on graphs the pins do not hold — cyclic ones, and roots in mid-block —
// across shard and word boundaries: equal tallies, equal generators
// afterwards.
func TestMonteCarloMatchesScalarLoop(t *testing.T) {
	rng := stats.NewRNG(0x5ca1a)
	pattern := bernoulliTrial(0.3)
	for i := 0; i < 24; i++ {
		g := laneTestGraph(t, rng, i)
		for _, plan := range [][2]int{{1, 0}, {64, 0}, {100, 0}, {513, 0}, {200, 37}, {130, 64}} {
			trials, shardSize := plan[0], plan[1]
			seed := rng.Uint64()
			a, b := stats.NewRNG(seed), stats.NewRNG(seed)
			got, err := g.MonteCarloAuthProbInto(PerTrial(pattern), trials, a, MCOptions{Workers: 1 + i%3, ShardSize: shardSize})
			if err != nil {
				t.Fatal(err)
			}
			if shardSize == 0 {
				shardSize = defaultMCShardSize
			}
			recv, ver := scalarMonteCarlo(g, pattern, trials, shardSize, b)
			name := fmt.Sprintf("graph %d, %d trials in shards of %d", i, trials, shardSize)
			if !reflect.DeepEqual(got.ReceivedCounts, recv) || !reflect.DeepEqual(got.VerifiedCounts, ver) {
				t.Fatalf("%s: tallies differ from the scalar loop\n got %v / %v\nwant %v / %v",
					name, got.ReceivedCounts, got.VerifiedCounts, recv, ver)
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("%s: the caller's generator advanced differently", name)
			}
		}
	}
}

// TestEdgeStoreMatchesModel drives AddEdge / RemoveEdge / HasEdge against a
// map — the edge set the graph itself kept before its sorted adjacency rows
// became the only store — including the refusals, whose wording callers
// print: duplicates, missing edges, and endpoints outside 1..n.
func TestEdgeStoreMatchesModel(t *testing.T) {
	const n = 12
	g, err := New(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	model := map[[2]int]bool{}
	rng := stats.NewRNG(99)
	for op := 0; op < 4000; op++ {
		from, to := rng.Intn(n+3)-1, rng.Intn(n+3)-1 // -1 .. n+1
		inRange := from >= 1 && from <= n && to >= 1 && to <= n
		key := [2]int{from, to}
		if got := g.HasEdge(from, to); got != model[key] {
			t.Fatalf("op %d: HasEdge(%d,%d) = %v, model %v", op, from, to, got, model[key])
		}
		if rng.Bernoulli(0.6) {
			err := g.AddEdge(from, to)
			switch {
			case model[key]:
				if want := fmt.Sprintf("depgraph: duplicate edge %d -> %d", from, to); err == nil || err.Error() != want {
					t.Fatalf("op %d: duplicate AddEdge: %v, want %q", op, err, want)
				}
			case !inRange || from == to || to == 1:
				if err == nil {
					t.Fatalf("op %d: AddEdge(%d,%d) accepted", op, from, to)
				}
			case err != nil:
				t.Fatalf("op %d: AddEdge(%d,%d): %v", op, from, to, err)
			default:
				model[key] = true
			}
		} else {
			err := g.RemoveEdge(from, to)
			if model[key] {
				if err != nil {
					t.Fatalf("op %d: RemoveEdge(%d,%d): %v", op, from, to, err)
				}
				delete(model, key)
			} else if want := fmt.Sprintf("depgraph: no edge %d -> %d", from, to); err == nil || err.Error() != want {
				t.Fatalf("op %d: RemoveEdge of a missing edge: %v, want %q", op, err, want)
			}
		}
		if g.NumEdges() != len(model) {
			t.Fatalf("op %d: NumEdges = %d, model holds %d", op, g.NumEdges(), len(model))
		}
	}
	for _, e := range g.Edges() {
		if !model[e] {
			t.Errorf("Edges lists %v, which the model does not hold", e)
		}
	}
	c := g.Clone()
	for v := 1; v <= n; v++ {
		if !sort.IntsAreSorted(g.out[v]) || !sort.IntsAreSorted(g.in[v]) {
			t.Errorf("vertex %d: adjacency rows not sorted: out %v in %v", v, g.out[v], g.in[v])
		}
		if !reflect.DeepEqual(c.out[v], g.out[v]) || !reflect.DeepEqual(c.in[v], g.in[v]) {
			t.Errorf("vertex %d: clone's rows differ", v)
		}
	}
	for _, tt := range []struct {
		from, to int
		want     string
	}{
		{0, 2, "depgraph: edge source 0 out of [1,12]"},
		{2, 13, "depgraph: edge target 13 out of [1,12]"},
	} {
		if err := g.AddEdge(tt.from, tt.to); err == nil || err.Error() != tt.want {
			t.Errorf("AddEdge(%d,%d): %v, want %q", tt.from, tt.to, err, tt.want)
		}
	}
}
