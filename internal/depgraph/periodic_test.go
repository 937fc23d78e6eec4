package depgraph_test

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"mcauth/internal/depgraph"
	"mcauth/internal/loss"
	"mcauth/internal/stats"
)

// The paper's independence recurrence (Equations 8-10) and the exact
// evaluator on the periodic topologies of Equation (9), in the paper's
// reversed indexing: the recurrence's analytic properties, and the
// recurrence and the single-path closed form against the truth, the exact
// evaluator swept over the same graph.

// periodicGraph is the periodic topology of Equation (9) in the paper's
// reversed indexing (signature packet = vertex 1): P_i hangs off P_{i-a} for
// every offset a, and off the signature packet where i-a would fall before
// it.
func periodicGraph(t *testing.T, n int, offsets ...int) *depgraph.Graph {
	t.Helper()
	g, err := depgraph.New(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= n; i++ {
		for _, a := range offsets {
			if from := max(i-a, 1); !g.HasEdge(from, i) {
				g.MustAddEdge(from, i)
			}
		}
	}
	return g
}

// chainQ is the Rohatgi closed form on a single path rooted at P_1:
// q_1 = 1 and q_i = (1-p)^(i-2), every packet strictly between P_i and the
// signature packet surviving.
func chainQ(i int, p float64) float64 {
	if i == 1 {
		return 1
	}
	return math.Pow(1-p, float64(i-2))
}

// recurrence is g.Recurrence(p), failing the test on error.
func recurrence(t *testing.T, g *depgraph.Graph, p float64) depgraph.AuthResult {
	t.Helper()
	res, err := g.Recurrence(p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func exactQ(t *testing.T, g *depgraph.Graph, ch depgraph.Channel) depgraph.AuthResult {
	t.Helper()
	res, err := g.ExactAuthProbDelivery(depgraph.Delivery{Channel: ch, Root: depgraph.Conditioned})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func iid(p float64) depgraph.Channel { return loss.Bernoulli{P: p}.Channel() }

// geChain is a Gilbert-Elliott channel with mean burst length burstLen and
// stationary loss rate: lossless Good state, total-loss Bad state.
func geChain(t *testing.T, rate, burstLen float64) loss.GilbertElliott {
	t.Helper()
	pBadToGood := 1 / burstLen
	ge, err := loss.NewGilbertElliott(rate*pBadToGood/(1-rate), pBadToGood, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ge
}

func TestPeriodicSingleOffsetEqualsRohatgi(t *testing.T) {
	// A = {1} is exactly the Rohatgi chain; the recurrence must reproduce
	// the closed form.
	n, p := 12, 0.3
	res := recurrence(t, periodicGraph(t, n, 1), p)
	for i := 1; i <= n; i++ {
		if want := chainQ(i, p); math.Abs(res.Q[i]-want) > 1e-12 {
			t.Errorf("Q[%d] = %v, closed form %v", i, res.Q[i], want)
		}
	}
}

func TestPeriodicE21InitialConditions(t *testing.T) {
	res := recurrence(t, periodicGraph(t, 10, 1, 2), 0.4)
	// Paper: q_1 = q_2 = q_3 = 1 for E_{2,1}.
	for i := 1; i <= 3; i++ {
		if res.Q[i] != 1 {
			t.Errorf("Q[%d] = %v, want 1", i, res.Q[i])
		}
	}
	// q_4 = 1 - [1-(1-p)q_3][1-(1-p)q_2] = 1 - p^2.
	want := 1 - 0.4*0.4
	if math.Abs(res.Q[4]-want) > 1e-12 {
		t.Errorf("Q[4] = %v, want %v", res.Q[4], want)
	}
	// The same boundary on the graph EMSS emits, reversed: the signature
	// packet, sent last, becomes index 1.
	rev := recurrence(t, schemeGraph(t, "emss", 10, 2, 1), 0.4)
	slices.Reverse(rev.Q[1:])
	for i := 1; i <= 3; i++ {
		if rev.Q[i] != 1 {
			t.Errorf("emitted E_{2,1}: Q[%d] = %v, want 1", i, rev.Q[i])
		}
	}
}

func TestPeriodicNoLoss(t *testing.T) {
	if q := recurrence(t, periodicGraph(t, 100, 1, 5), 0).QMin; q != 1 {
		t.Errorf("QMin with p=0 = %v, want 1", q)
	}
}

func TestPeriodicTotalLoss(t *testing.T) {
	// Beyond the boundary, nothing survives to carry hashes.
	if q := recurrence(t, periodicGraph(t, 10, 1, 2), 1).Q[5]; q != 0 {
		t.Errorf("Q[5] with p=1 = %v, want 0", q)
	}
}

func TestPeriodicValidation(t *testing.T) {
	// The offsets no topology has are edges no graph takes: offset 0 is a
	// self-loop, a repeated offset a duplicate edge; and the recurrence
	// takes only a loss rate in [0,1].
	for _, edges := range [][][2]int{
		{{5, 5}},
		{{4, 5}, {4, 5}},
		{{1, 11}},
		{{2, 1}},
	} {
		if _, err := depgraph.New(10, 1, edges...); err == nil {
			t.Errorf("edges %v accepted", edges)
		}
	}
	if _, err := depgraph.New(0, 1); err == nil {
		t.Error("n = 0 accepted")
	}
	g := periodicGraph(t, 10, 1)
	for _, p := range []float64{-0.1, 2, math.NaN()} {
		if _, err := g.Recurrence(p); err == nil {
			t.Errorf("loss rate %v accepted", p)
		}
	}
}

func TestPeriodicMonotoneInP(t *testing.T) {
	g := periodicGraph(t, 200, 1, 2)
	prev := 1.0
	for _, p := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		qmin := recurrence(t, g, p).QMin
		if qmin > prev+1e-12 {
			t.Errorf("QMin increased when p rose to %v: %v > %v", p, qmin, prev)
		}
		prev = qmin
	}
}

func TestPeriodicQDecreasesFromSignature(t *testing.T) {
	res := recurrence(t, periodicGraph(t, 100, 1, 2), 0.3)
	for i := 4; i <= 100; i++ {
		if res.Q[i] > res.Q[i-1]+1e-12 {
			t.Errorf("Q[%d]=%v > Q[%d]=%v: q must not increase away from the signature", i, res.Q[i], i-1, res.Q[i-1])
		}
	}
}

// requireBackwardOffsetRejected checks that the periodic topology with the
// given offsets, plus P_i relying on P_{i+back} wherever that packet exists,
// is refused as cyclic and evaluates to no vector.
func requireBackwardOffsetRejected(t *testing.T, n, back int, offsets ...int) {
	t.Helper()
	g := periodicGraph(t, n, offsets...)
	for i := 2; i+back <= n; i++ {
		if !g.HasEdge(i+back, i) {
			g.MustAddEdge(i+back, i)
		}
	}
	res, err := g.Recurrence(0.3)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("offsets %v and -%d: Recurrence = %v, want the cycle error", offsets, back, err)
	}
	if res.Q != nil {
		t.Errorf("offsets %v and -%d: a vector alongside the error", offsets, back)
	}
}

func TestPeriodicNegativeOffsetAddsRobustness(t *testing.T) {
	// A backward dependence (a packet also storing its hash in a packet
	// farther from the signature) closes a cycle with the forward offsets:
	// no hash chain builds it, so it adds no robustness and is rejected,
	// while the forward-only topology it extended still evaluates.
	recurrence(t, periodicGraph(t, 50, 1, 2), 0.3)
	requireBackwardOffsetRejected(t, 50, 3, 1, 2)
}

func TestPeriodicNegativeOffsetsConverge(t *testing.T) {
	// {1, -1} makes every adjacent pair mutually dependent. The recurrence
	// is a single forward pass with no fixed-point iteration, so it must
	// refuse the system outright rather than return a partial solution.
	requireBackwardOffsetRejected(t, 300, 1, 1)
}

// Property: q_i always stays within [0,1] for arbitrary valid offset sets.
func TestPeriodicRangeProperty(t *testing.T) {
	f := func(seed uint8, pRaw uint8) bool {
		p := float64(pRaw) / 255
		res, err := periodicGraph(t, 80, 1, int(seed%5)+2).Recurrence(p)
		if err != nil {
			return false
		}
		for i := 1; i <= 80; i++ {
			if res.Q[i] < 0 || res.Q[i] > 1 || math.IsNaN(res.Q[i]) {
				return false
			}
		}
		return res.QMin >= 0 && res.QMin <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMarkovSingleOffsetIsChain(t *testing.T) {
	// With A = {1} the exact process is the Rohatgi chain and the closed
	// form is exact (a single path has no correlation to ignore).
	n, p := 20, 0.3
	exact := exactQ(t, periodicGraph(t, n, 1), iid(p))
	for i := 2; i <= n; i++ {
		if want := chainQ(i, p); math.Abs(exact.Q[i]-want) > 1e-12 {
			t.Errorf("Q[%d] = %v, closed form %v", i, exact.Q[i], want)
		}
	}
}

func TestMarkovMatchesBruteForceE21(t *testing.T) {
	// Brute-force the E_{2,1} verifiability process — V(i) = R(i) for
	// i <= 3, V(i) = R(i) && (V(i-1) || V(i-2)) beyond — over all loss
	// patterns of a small block and compare exactly.
	n, p := 14, 0.3
	exact := exactQ(t, periodicGraph(t, n, 1, 2), iid(p))
	sumQ := make([]float64, n+1)
	for mask := 0; mask < 1<<(n-1); mask++ {
		prob := 1.0
		recvd := make([]bool, n+1)
		for i := 2; i <= n; i++ {
			if recvd[i] = mask&(1<<(i-2)) != 0; recvd[i] {
				prob *= 1 - p
			} else {
				prob *= p
			}
		}
		v := make([]bool, n+1)
		v[1] = true
		for i := 2; i <= n; i++ {
			v[i] = recvd[i] && (i <= 3 || v[i-1] || v[i-2])
			if v[i] {
				sumQ[i] += prob
			}
		}
	}
	for i := 2; i <= n; i++ {
		want := sumQ[i] / (1 - p) // condition on R(i)
		if math.Abs(exact.Q[i]-want) > 1e-12 {
			t.Errorf("Q[%d] = %v, brute force %v", i, exact.Q[i], want)
		}
	}
}

func TestRecurrenceUpperBoundsMarkovExact(t *testing.T) {
	// The verifiability events feeding each packet are positively
	// correlated, so the independence-assuming recurrence (Equation 9)
	// must upper-bound the exact probability everywhere.
	for _, offsets := range [][]int{{1, 2}, {1, 3}, {2, 4}, {1, 2, 3}} {
		for _, p := range []float64{0.1, 0.3, 0.5} {
			g := periodicGraph(t, 100, offsets...)
			rec, exact := recurrence(t, g, p), exactQ(t, g, iid(p))
			for i := 1; i <= 100; i++ {
				if exact.Q[i] > rec.Q[i]+1e-9 {
					t.Errorf("offsets %v p=%v: exact Q[%d]=%v exceeds recurrence %v",
						offsets, p, i, exact.Q[i], rec.Q[i])
				}
			}
		}
	}
}

func TestMarkovAbsorptionDecay(t *testing.T) {
	// The exact E_{2,1} process has an absorbing failure state (two
	// consecutive unverifiable packets): q_i must decay toward 0 with
	// depth, unlike the recurrence's positive fixed point.
	g := periodicGraph(t, 2000, 1, 2)
	if deep := exactQ(t, g, iid(0.3)).QMin; deep > 0.01 {
		t.Errorf("exact QMin(n=2000) = %v, want near 0 (absorption)", deep)
	}
	if rec := recurrence(t, g, 0.3).QMin; rec < 0.5 {
		t.Errorf("recurrence QMin = %v, expected positive fixed point", rec)
	}
}

func TestMarkovNoLoss(t *testing.T) {
	if q := exactQ(t, periodicGraph(t, 50, 1, 2), iid(0)).QMin; q != 1 {
		t.Errorf("QMin at p=0 = %v, want 1", q)
	}
}

func TestMarkovSmallBlockAllBoundary(t *testing.T) {
	res := exactQ(t, periodicGraph(t, 3, 1, 2, 3, 4), iid(0.5))
	for i := 1; i <= 3; i++ {
		if res.Q[i] != 1 {
			t.Errorf("Q[%d] = %v, want 1 (all within boundary)", i, res.Q[i])
		}
	}
}

func TestBurstyDegenerateMatchesIID(t *testing.T) {
	g := periodicGraph(t, 80, 1, 2)
	for _, p := range []float64{0.1, 0.3, 0.5} {
		want := exactQ(t, g, iid(p))
		// Two states that behave exactly like i.i.d. loss at rate p.
		got := exactQ(t, g, loss.GilbertElliott{PGoodToBad: 0.5, PBadToGood: 0.5, PGood: p, PBad: p}.Channel())
		for i := 1; i <= 80; i++ {
			if math.Abs(want.Q[i]-got.Q[i]) > 1e-12 {
				t.Errorf("p=%v Q[%d]: iid %v vs degenerate-bursty %v", p, i, want.Q[i], got.Q[i])
			}
		}
	}
}

func TestBurstinessCrushesE21(t *testing.T) {
	// At equal loss rate, lengthening bursts past 1 must slash the exact
	// E_{2,1} q_min (two consecutive losses sever the chain), while
	// isolated single losses (burst length exactly 1 under PBad=1 and
	// immediate recovery) are harmless.
	g := periodicGraph(t, 200, 1, 2)
	single := exactQ(t, g, geChain(t, 0.1, 1).Channel()).QMin
	if single < 0.999 {
		t.Errorf("isolated single losses should be harmless: qmin %v", single)
	}
	if burst2 := exactQ(t, g, geChain(t, 0.1, 2).Channel()).QMin; burst2 > 0.5*single {
		t.Errorf("mean-burst-2 should crush E21: %v vs %v", burst2, single)
	}
}

func TestBurstySpreadOffsetsResist(t *testing.T) {
	// Spreading the hash copies (d > burst length) restores burst
	// tolerance: the two carriers are never both inside one burst.
	ch := geChain(t, 0.1, 2).Channel()
	tight := exactQ(t, periodicGraph(t, 200, 1, 2), ch).QMin
	spread := exactQ(t, periodicGraph(t, 200, 1, 8), ch).QMin
	if spread <= tight {
		t.Errorf("spread offsets (%v) should beat tight ones (%v) under bursts", spread, tight)
	}
}

func TestBurstyMatchesMonteCarloOnGraph(t *testing.T) {
	// Cross-check the evaluator against Monte-Carlo simulation of the same
	// loss process over the same graph, rejecting samples that lose the
	// signature packet (exact conditioning).
	n := 24
	g := periodicGraph(t, n, 1, 2)
	ge := geChain(t, 0.15, 3)
	exact := exactQ(t, g, ge.Channel())
	mc, err := g.MonteCarloAuthProbInto(depgraph.PerTrial(func(rng *stats.RNG, received []bool) {
		for {
			if ge.SampleInto(rng, received); received[1] {
				return
			}
		}
	}), 60000, stats.NewRNG(99), depgraph.MCOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= n; i++ {
		if math.Abs(exact.Q[i]-mc.Q[i]) > 0.02 {
			t.Errorf("packet %d: exact %v vs MC %v", i, exact.Q[i], mc.Q[i])
		}
	}
}
