package analysis_test

import (
	"math"
	"testing"

	"mcauth/internal/analysis"
	"mcauth/internal/depgraph"
	"mcauth/internal/loss"
	"mcauth/internal/stats"
)

// The closed forms and the recurrence against the truth: the exact
// evaluator (depgraph.ExactAuthProbChannel) swept over the same graph. The
// evaluator's own differential suite is in internal/depgraph.

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

func exactQ(t *testing.T, g *depgraph.Graph, ch depgraph.Channel) depgraph.AuthResult {
	t.Helper()
	res, err := g.ExactAuthProbChannel(ch)
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

// augChainQ is the exact Q of the emitted C_{a,b} graph, reversed.
func augChainQ(t *testing.T, n, a, b int, p float64) depgraph.AuthResult {
	t.Helper()
	return reversed(exactQ(t, augGraph(t, n, a, b), iid(p)))
}

func TestMarkovSingleOffsetIsChain(t *testing.T) {
	// With A = {1} the exact process is the Rohatgi chain and the closed
	// form is exact (a single path has no correlation to ignore).
	n, p := 20, 0.3
	exact := exactQ(t, periodicGraph(t, n, 1), iid(p))
	closed, err := analysis.Rohatgi(n, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= n; i++ {
		if math.Abs(exact.Q[i]-closed.Q[i]) > 1e-12 {
			t.Errorf("Q[%d] = %v, closed form %v", i, exact.Q[i], closed.Q[i])
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
	deep := exactQ(t, periodicGraph(t, 2000, 1, 2), iid(0.3)).QMin
	if deep > 0.01 {
		t.Errorf("exact QMin(n=2000) = %v, want near 0 (absorption)", deep)
	}
	if rec := emssQ(t, 2000, 2, 1, 0.3).QMin; rec < 0.5 {
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
	mc, err := g.MonteCarloAuthProbInto(depgraph.PerTrial(func(rng *stats.RNG, received []bool) error {
		for {
			if ge.SampleInto(rng, received); received[1] {
				return nil
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

func TestAugChainExactNoLoss(t *testing.T) {
	if q := augChainQ(t, 31, 3, 2, 0).QMin; q != 1 {
		t.Errorf("QMin at p=0 = %v, want 1", q)
	}
}

func TestAugChainExactRecurrenceUpperBounds(t *testing.T) {
	for _, p := range []float64{0.1, 0.3, 0.5} {
		exact, rec := augChainQ(t, 301, 3, 2, p), augQ(t, 301, 3, 2, p)
		for i := 1; i <= 301; i++ {
			if exact.Q[i] > rec.Q[i]+1e-9 {
				t.Errorf("p=%v index %d: exact %v exceeds recurrence %v",
					p, i, exact.Q[i], rec.Q[i])
			}
		}
	}
}

func TestAugChainExactDecaysWithDepth(t *testing.T) {
	// Like E_{2,1}, the exact chain has an absorbing failure state, so
	// q_min decays with block size while the recurrence plateaus.
	shallow := augChainQ(t, 91, 3, 2, 0.3).QMin
	deep := augChainQ(t, 901, 3, 2, 0.3).QMin
	if deep >= shallow {
		t.Errorf("exact q_min should decay with n: %v vs %v", deep, shallow)
	}
	if rec := augQ(t, 901, 3, 2, 0.3).QMin; rec <= deep {
		t.Errorf("recurrence %v should exceed exact %v at depth", rec, deep)
	}
}
