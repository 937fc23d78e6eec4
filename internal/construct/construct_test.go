package construct

import (
	"math"
	"testing"

	"mcauth/internal/depgraph"
	"mcauth/internal/scheme/emss"
	"mcauth/internal/stats"
)

func TestConstraintValidation(t *testing.T) {
	bad := []Constraint{
		{N: 1, P: 0.1, TargetQMin: 0.9},
		{N: 10, P: -0.1, TargetQMin: 0.9},
		{N: 10, P: 1.0, TargetQMin: 0.9},
		{N: 10, P: 0.1, TargetQMin: 0},
		{N: 10, P: 0.1, TargetQMin: 1.1},
		{N: 10, P: math.NaN(), TargetQMin: 0.9},
		{N: 10, P: 0.1, TargetQMin: math.NaN()},
	}
	for _, c := range bad {
		if err := c.validate(); err == nil {
			t.Errorf("constraint %+v should fail", c)
		}
	}
}

func TestApproxQMatchesPeriodicRecurrence(t *testing.T) {
	// The uniform policy m = 2, d = 1 is EMSS E_{2,1} sent signature
	// first: its recurrence is the one Figures 7-9 plot, packet for packet.
	n, p := 40, 0.3
	g, err := policyGraph(n, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	q, err := g.Recurrence(p)
	if err != nil {
		t.Fatal(err)
	}
	e21, err := emss.Config{N: n, M: 2, D: 1}.Graph()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := e21.Recurrence(p)
	if err != nil {
		t.Fatal(err)
	}
	// The E_{2,1} signature packet is sent last: vertex v here is n+1-v
	// there.
	for v := 1; v <= n; v++ {
		if q.Q[v] != rec.Q[n+1-v] {
			t.Errorf("vertex %d: policy %v vs E_{2,1} %v", v, q.Q[v], rec.Q[n+1-v])
		}
	}
}

func TestApproxQChainExact(t *testing.T) {
	g, err := policyGraph(12, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Recurrence(0.2)
	if err != nil {
		t.Fatal(err)
	}
	// Single path: the approximation is exact, (1-p)^(v-2).
	for v := 2; v <= 12; v++ {
		want := math.Pow(0.8, float64(v-2))
		if math.Abs(res.Q[v]-want) > 1e-12 {
			t.Errorf("q[%d] = %v, want %v", v, res.Q[v], want)
		}
	}
}

func TestApproxQUnreachable(t *testing.T) {
	g, err := depgraph.New(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.MustAddEdge(1, 2)
	res, err := g.Recurrence(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Q[3] != 0 || res.QMin != 0 {
		t.Errorf("unreachable q = %v, q_min %v; want 0", res.Q[3], res.QMin)
	}
}

func TestGreedyMeetsTarget(t *testing.T) {
	c := Constraint{N: 50, P: 0.2, TargetQMin: 0.9}
	plan, err := Greedy(c)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Met {
		t.Fatalf("greedy failed to meet target: qmin = %v", plan.QMin)
	}
	if err := plan.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	// Zero-delay property: all edges forward.
	for _, e := range plan.Graph.Edges() {
		if e[0] >= e[1] {
			t.Fatalf("backward edge %v violates zero-delay constraint", e)
		}
	}
	maxDelay, err := plan.Graph.MaxDeterministicDelay()
	if err != nil {
		t.Fatal(err)
	}
	if maxDelay != 0 {
		t.Errorf("greedy graph delay = %d, want 0", maxDelay)
	}
}

func TestGreedyCheaperForLooserTargets(t *testing.T) {
	strict, err := Greedy(Constraint{N: 60, P: 0.3, TargetQMin: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Greedy(Constraint{N: 60, P: 0.3, TargetQMin: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if loose.EdgesPerPacket > strict.EdgesPerPacket {
		t.Errorf("looser target cost more edges: %v > %v",
			loose.EdgesPerPacket, strict.EdgesPerPacket)
	}
}

func TestGreedyTrivialTarget(t *testing.T) {
	// p = 0: the spanning chain alone suffices.
	plan, err := Greedy(Constraint{N: 20, P: 0, TargetQMin: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Met {
		t.Error("p=0 target not met")
	}
	if plan.Graph.NumEdges() != 19 {
		t.Errorf("edges = %d, want bare chain 19", plan.Graph.NumEdges())
	}
}

func TestPolicySearchFindsMinimalM(t *testing.T) {
	c := Constraint{N: 200, P: 0.1, TargetQMin: 0.9}
	plan, m, d, err := PolicySearch(c, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Met {
		t.Fatalf("policy (m=%d,d=%d) did not meet target: %v", m, d, plan.QMin)
	}
	// At p=0.1, E_{2,1} has fixed point (1-2p)/(1-p)^2 ≈ 0.988 >= 0.9,
	// while m=1 collapses. The minimal m must be 2.
	if m != 2 {
		t.Errorf("m = %d, want 2", m)
	}
}

func TestPolicySearchImpossible(t *testing.T) {
	c := Constraint{N: 100, P: 0.6, TargetQMin: 0.999}
	if _, _, _, err := PolicySearch(c, 2, 2); err == nil {
		t.Error("impossible constraint should fail")
	}
	if _, _, _, err := PolicySearch(c, 0, 1); err == nil {
		t.Error("maxM=0 should fail")
	}
}

func TestProbabilisticMeetsTarget(t *testing.T) {
	c := Constraint{N: 40, P: 0.2, TargetQMin: 0.85}
	plan, rho, err := Probabilistic(c, stats.NewRNG(77))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Met {
		t.Fatalf("probabilistic (rho=%v) missed target: %v", rho, plan.QMin)
	}
	if rho <= 0 || rho > 1 {
		t.Errorf("rho = %v out of (0,1]", rho)
	}
	if err := plan.Graph.Validate(); err != nil {
		t.Errorf("patched random graph invalid: %v", err)
	}
}

func TestProbabilisticValidation(t *testing.T) {
	if _, _, err := Probabilistic(Constraint{N: 10, P: 0.1, TargetQMin: 0.9}, nil); err == nil {
		t.Error("nil rng should fail")
	}
}

func TestGreedyRespectsOutDegreeCap(t *testing.T) {
	c := Constraint{N: 60, P: 0.2, TargetQMin: 0.9, MaxOutDegree: 3}
	plan, err := Greedy(c)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Met {
		t.Fatalf("capped greedy missed target: qmin=%v", plan.QMin)
	}
	for v := 1; v <= 60; v++ {
		if d := plan.Graph.OutDegree(v); d > 3 {
			t.Errorf("vertex %d out-degree %d exceeds cap", v, d)
		}
	}
	if err := (Constraint{N: 10, P: 0.1, TargetQMin: 0.5, MaxOutDegree: -1}).validate(); err == nil {
		t.Error("negative cap should fail validation")
	}
}

func TestGreedyCapForcesSpread(t *testing.T) {
	// With a cap, the root cannot absorb every reinforcement; edges must
	// spread across interior vertices.
	c := Constraint{N: 60, P: 0.2, TargetQMin: 0.9, MaxOutDegree: 2}
	plan, err := Greedy(c)
	if err != nil {
		t.Fatal(err)
	}
	interiorSources := 0
	for _, e := range plan.Graph.Edges() {
		if e[0] != plan.Graph.Root() && e[1] != e[0]+1 {
			interiorSources++
		}
	}
	if plan.Met && interiorSources == 0 {
		t.Error("capped greedy should route reinforcement through interior vertices")
	}
}

func TestGreedyBeatsChainRobustness(t *testing.T) {
	// The greedy plan must dominate the bare chain it started from.
	c := Constraint{N: 30, P: 0.3, TargetQMin: 0.8}
	plan, err := Greedy(c)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := policyGraph(30, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	chainQ, err := chain.Recurrence(c.P)
	if err != nil {
		t.Fatal(err)
	}
	if plan.QMin <= chainQ.QMin {
		t.Errorf("greedy qmin %v not better than chain %v", plan.QMin, chainQ.QMin)
	}
}

func TestProbabilisticExtremeTarget(t *testing.T) {
	// TargetQMin = 1 is only reachable when every vertex hangs directly
	// off the root; whether a lucky near-1 draw or the rho = 1 fallback
	// wins, the result must meet the target.
	c := Constraint{N: 20, P: 0.5, TargetQMin: 1.0}
	plan, rho, err := Probabilistic(c, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Met {
		t.Errorf("plan unmet: qmin %v (rho %v)", plan.QMin, rho)
	}
}

func TestRandomGraphExtremes(t *testing.T) {
	rng := stats.NewRNG(21)
	// rho = 1: the complete forward DAG, trivially valid.
	full, err := randomGraph(10, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if full.NumEdges() != 45 { // 10*9/2
		t.Errorf("complete DAG edges = %d, want 45", full.NumEdges())
	}
	if err := full.Validate(); err != nil {
		t.Fatal(err)
	}
	// rho = 0: nothing drawn; the reachability patch must synthesize the
	// chain.
	sparse, err := randomGraph(10, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.Validate(); err != nil {
		t.Errorf("patched empty draw invalid: %v", err)
	}
	if sparse.NumEdges() != 9 {
		t.Errorf("patched edges = %d, want chain 9", sparse.NumEdges())
	}
}

func TestProbabilisticLowTargetSparseGraphPatched(t *testing.T) {
	// A tiny target drives rho toward 0; the sparse draws leave
	// unreachable vertices that the chain-patch must repair, keeping
	// Definition 1's reachability property.
	c := Constraint{N: 30, P: 0.1, TargetQMin: 0.05}
	plan, rho, err := Probabilistic(c, stats.NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Met {
		t.Errorf("plan unmet at trivial target: qmin %v", plan.QMin)
	}
	if rho > 0.2 {
		t.Errorf("rho = %v, expected sparse", rho)
	}
	if err := plan.Graph.Validate(); err != nil {
		t.Errorf("patched graph invalid: %v", err)
	}
}
