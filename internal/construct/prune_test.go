package construct

import (
	"fmt"
	"reflect"
	"testing"

	"mcauth/internal/depgraph"
	"mcauth/internal/parallel"
	"mcauth/internal/stats"
)

func TestRemoveEdge(t *testing.T) {
	g, err := depgraph.New(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.MustAddEdge(1, 2)
	g.MustAddEdge(1, 3)
	if err := g.RemoveEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(1, 3) || g.NumEdges() != 1 {
		t.Error("edge not removed")
	}
	if err := g.RemoveEdge(1, 3); err == nil {
		t.Error("removing missing edge should fail")
	}
	// Removal must not disturb other adjacency.
	if !g.HasEdge(1, 2) {
		t.Error("unrelated edge disturbed")
	}
}

func TestPruneShrinksOverProvisionedGraph(t *testing.T) {
	c := Constraint{N: 40, P: 0.2, TargetQMin: 0.85}
	plan, rho, err := Probabilistic(c, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Met {
		t.Fatalf("probabilistic plan (rho=%v) infeasible", rho)
	}
	before := plan.Graph.NumEdges()
	pruned, removed, err := Prune(plan.Graph, c)
	if err != nil {
		t.Fatal(err)
	}
	if !pruned.Met {
		t.Fatalf("pruning broke the constraint: qmin %v", pruned.QMin)
	}
	if removed == 0 || pruned.Graph.NumEdges() >= before {
		t.Errorf("pruning removed %d edges (before %d, after %d)",
			removed, before, pruned.Graph.NumEdges())
	}
	if err := pruned.Graph.Validate(); err != nil {
		t.Errorf("pruned graph invalid: %v", err)
	}
	// The original graph is untouched.
	if plan.Graph.NumEdges() != before {
		t.Error("Prune mutated its input")
	}
}

func TestPruneIsFixedPointForTightGraphs(t *testing.T) {
	// A minimal chain at a loose target still needs every edge for
	// reachability: nothing is removable.
	c := Constraint{N: 10, P: 0, TargetQMin: 0.5}
	g, err := policyGraph(10, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	pruned, removed, err := Prune(g, c)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Errorf("removed %d edges from a minimal chain", removed)
	}
	if pruned.Graph.NumEdges() != 9 {
		t.Errorf("edges = %d, want 9", pruned.Graph.NumEdges())
	}
}

func TestPruneInfeasibleStart(t *testing.T) {
	// A bare chain at p=0.3 cannot meet 0.9; Prune reports it unmet and
	// removes nothing.
	c := Constraint{N: 20, P: 0.3, TargetQMin: 0.9}
	g, err := policyGraph(20, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, removed, err := Prune(g, c)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Met || removed != 0 {
		t.Errorf("infeasible start: met=%v removed=%d", plan.Met, removed)
	}
}

func TestPruneValidation(t *testing.T) {
	c := Constraint{N: 10, P: 0.1, TargetQMin: 0.9}
	if _, _, err := Prune(nil, c); err == nil {
		t.Error("nil graph should fail")
	}
	g, err := policyGraph(5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Prune(g, c); err == nil {
		t.Error("size mismatch should fail")
	}
	if _, _, err := Prune(g, Constraint{N: 5, P: -1, TargetQMin: 0.5}); err == nil {
		t.Error("invalid constraint should fail")
	}
}

func TestPrunePolicyGraphDropsClampDuplicates(t *testing.T) {
	// An m=3 policy at a target m=2 satisfies: pruning should strip
	// roughly a third of the edges.
	c := Constraint{N: 60, P: 0.1, TargetQMin: 0.9}
	g, err := policyGraph(60, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := g.NumEdges()
	pruned, removed, err := Prune(g, c)
	if err != nil {
		t.Fatal(err)
	}
	if !pruned.Met {
		t.Fatalf("pruned plan unmet: %v", pruned.QMin)
	}
	if removed < before/5 {
		t.Errorf("only %d of %d edges pruned; expected substantial savings", removed, before)
	}
}

// TestPruneSharedGraphUnderParallel: the graph's neighbour accessors hand
// out its own slices, so many readers of one graph are safe exactly as long
// as none of them writes through a view — which the race detector checks
// here (ci.sh runs the suite under -race): concurrent Recurrence and Prune
// calls on one shared input, Prune mutating only its clone, all reaching the
// sequential answers and leaving the input as it was.
func TestPruneSharedGraphUnderParallel(t *testing.T) {
	c := Constraint{N: 40, P: 0.2, TargetQMin: 0.85}
	plan, _, err := Probabilistic(c, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	g := plan.Graph
	before := g.Edges()
	wantQ, err := g.Recurrence(c.P)
	if err != nil {
		t.Fatal(err)
	}
	wantPlan, wantRemoved, err := Prune(g, c)
	if err != nil {
		t.Fatal(err)
	}
	if wantRemoved == 0 {
		t.Fatal("nothing to prune: the clone is never mutated")
	}
	_, err = parallel.Map(8, make([]struct{}, 16), func(i int, _ struct{}) (struct{}, error) {
		if i%2 == 0 {
			q, err := g.Recurrence(c.P)
			if err == nil && !reflect.DeepEqual(q.Q[1:], wantQ.Q[1:]) {
				err = fmt.Errorf("task %d: Recurrence differs from the sequential run", i)
			}
			return struct{}{}, err
		}
		pruned, removed, err := Prune(g, c)
		if err == nil && (removed != wantRemoved || !reflect.DeepEqual(pruned.Graph.Edges(), wantPlan.Graph.Edges())) {
			err = fmt.Errorf("task %d: Prune removed %d edges, sequentially %d", i, removed, wantRemoved)
		}
		return struct{}{}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Edges(), before) {
		t.Error("pruning clones changed the shared input graph")
	}
}

// pruneFullRecompute is Prune as it was before a trial re-evaluated only
// the removed edge's suffix of the order: every trial evaluates the whole
// graph.
func pruneFullRecompute(t *testing.T, g *depgraph.Graph, c Constraint) (Plan, int) {
	t.Helper()
	work := g.Clone()
	order, err := work.TopoFromRoot()
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float64, work.N()+1)
	meets := func() bool {
		work.RecurrenceInto(q, order, c.P)
		for _, qv := range q[1:] {
			if qv < c.TargetQMin {
				return false
			}
		}
		return true
	}
	removed := 0
	for again := meets(); again; {
		again = false
		for _, e := range work.Edges() {
			if err := work.RemoveEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
			if meets() {
				removed++
				again = true
				continue
			}
			work.MustAddEdge(e[0], e[1])
		}
	}
	plan, err := newPlan(work, c.P, c.TargetQMin)
	if err != nil {
		t.Fatal(err)
	}
	return plan, removed
}

// TestPruneSuffixMatchesFullRecompute is Prune's differential test: on
// seeded random graphs — dense and sparse, feasible and not, with loose and
// tight targets — the suffix re-evaluation returns the same plan (edges,
// q_min, cost, met) and the same removed count as re-evaluating the whole
// graph on every trial.
func TestPruneSuffixMatchesFullRecompute(t *testing.T) {
	rng := stats.NewRNG(0x9e6c)
	var pruned, infeasible int
	for i := 0; i < 120; i++ {
		n := 2 + rng.Intn(60)
		c := Constraint{N: n, P: 0.4 * rng.Float64(), TargetQMin: 0.3 + 0.69*rng.Float64()}
		g, err := randomGraph(n, 0.05+0.6*rng.Float64(), rng)
		if err != nil {
			t.Fatal(err)
		}
		want, wantRemoved := pruneFullRecompute(t, g, c)
		got, removed, err := Prune(g, c)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("graph %d (n=%d p=%.3f target=%.3f)", i, n, c.P, c.TargetQMin)
		if removed != wantRemoved || !reflect.DeepEqual(got.Graph.Edges(), want.Graph.Edges()) {
			t.Fatalf("%s: removed %d edges, full recompute %d; edge sets equal: %v",
				name, removed, wantRemoved, reflect.DeepEqual(got.Graph.Edges(), want.Graph.Edges()))
		}
		if got.QMin != want.QMin || got.EdgesPerPacket != want.EdgesPerPacket || got.Met != want.Met {
			t.Fatalf("%s: plan %+v, full recompute %+v", name, got, want)
		}
		if removed > 0 {
			pruned++
		}
		if !want.Met {
			infeasible++
		}
	}
	if pruned < 40 || infeasible < 10 {
		t.Errorf("suite pruned %d graphs and started %d infeasible; want at least 40 and 10", pruned, infeasible)
	}
}
