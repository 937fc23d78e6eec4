package depgraph_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"mcauth/internal/crypto"
	"mcauth/internal/depgraph"
	"mcauth/internal/loss"
	"mcauth/internal/scheme"
	"mcauth/internal/scheme/augchain"
	"mcauth/internal/scheme/emss"
	"mcauth/internal/scheme/rohatgi"
	"mcauth/internal/stats"
)

// The differential suite of the one exact evaluator,
// (*Graph).ExactAuthProbDelivery. Three independent references: the Q
// vectors of the three hand-derived evaluators it replaced, captured at the
// last commit that had them; pattern enumeration under i.i.d. loss
// (ExactAuthProbVector) on graphs no hand derivation covers; and pattern
// enumeration weighted by the HMM forward probability under a channel that
// is neither i.i.d. nor reversible.

// schemeGraph builds the dependence graph the runnable scheme emits.
func schemeGraph(t *testing.T, id string, n, x, y int) *depgraph.Graph {
	t.Helper()
	signer := crypto.NewSignerFromString("exact")
	var (
		s   *scheme.Chained
		err error
	)
	switch id {
	case "rohatgi":
		s, err = rohatgi.New(n, signer)
	case "emss":
		s, err = emss.New(emss.Config{N: n, M: x, D: y}, signer)
	case "augchain":
		s, err = augchain.New(augchain.Config{N: n, A: x, B: y}, signer)
	default:
		t.Fatalf("unknown scheme %q", id)
	}
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// burstChannel is the `burst` experiment's channel: stationary loss 0.1,
// lossless Good state, total-loss Bad state of mean length burst.
func burstChannel(t *testing.T, burst float64) loss.GilbertElliott {
	t.Helper()
	ge, err := loss.NewGilbertElliott(0.1/burst/(1-0.1), 1/burst, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ge
}

// TestExactChannelPinnedToReplacedEvaluators holds the evaluator to the
// outputs of internal/analysis's MarkovExact (emss, p set), AugChainExact
// (augchain) and MarkovExactBursty (burst set) as of the last commit that
// had them, which testdata/exact_pins.json records to 13 significant digits
// in their own reversed indexing (signature packet = 1).
func TestExactChannelPinnedToReplacedEvaluators(t *testing.T) {
	raw, err := os.ReadFile("testdata/exact_pins.json")
	if err != nil {
		t.Fatal(err)
	}
	var pins []struct {
		Scheme   string
		N, X, Y  int
		P, Burst float64
		Q        []float64
	}
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatal(err)
	}
	if len(pins) != 23 {
		t.Fatalf("%d pinned cases, want 23", len(pins))
	}
	for _, pin := range pins {
		name := fmt.Sprintf("%s_%d_%d_n%d_p%v_burst%v", pin.Scheme, pin.X, pin.Y, pin.N, pin.P, pin.Burst)
		t.Run(name, func(t *testing.T) {
			g := schemeGraph(t, pin.Scheme, pin.N, pin.X, pin.Y)
			ch := loss.Bernoulli{P: pin.P}.Channel()
			if pin.Burst > 0 {
				ch = burstChannel(t, pin.Burst).Channel()
			}
			got, err := g.ExactAuthProbDelivery(depgraph.Delivery{Channel: ch, Root: depgraph.Conditioned})
			if err != nil {
				t.Fatal(err)
			}
			worst, qmin := 0.0, 1.0
			for rev, want := range pin.Q {
				send := rev + 1
				if g.Root() == pin.N {
					send = pin.N - rev
				}
				worst = math.Max(worst, math.Abs(got.Q[send]-want))
				qmin = math.Min(qmin, want)
			}
			if worst > 1e-10 {
				t.Errorf("worst |q_i - pinned| = %.3g, want <= 1e-10", worst)
			}
			if math.Abs(got.QMin-qmin) > 1e-10 {
				t.Errorf("QMin = %v, pinned %v", got.QMin, qmin)
			}
		})
	}
}

// randomDAG draws a graph with edges in both send directions: a random
// topological rank (root first) decides each edge's direction, the send
// span its existence. Vertices may come out unreachable; both evaluators
// must then agree on q = 0.
func randomDAG(t *testing.T, rng *stats.RNG, n, root, span int) *depgraph.Graph {
	t.Helper()
	g, err := depgraph.New(n, root)
	if err != nil {
		t.Fatal(err)
	}
	rank := make([]int, n+1)
	perm := make([]int, 0, n)
	for v := 1; v <= n; v++ {
		if v != root {
			perm = append(perm, v)
		}
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, v := range perm {
		rank[v] = i + 1
	}
	for u := 1; u <= n; u++ {
		for v := u + 1; v <= min(n, u+span); v++ {
			if !rng.Bernoulli(0.4) {
				continue
			}
			from, to := u, v
			if rank[from] > rank[to] {
				from, to = to, from
			}
			if err := g.AddEdge(from, to); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

func TestExactChannelMatchesEnumerationOnRandomDAGs(t *testing.T) {
	rng := stats.NewRNG(2003)
	backward := 0
	for trial := 0; trial < 60; trial++ {
		n := 6 + rng.Intn(13) // 6..18
		root := 1
		if trial%2 == 1 {
			root = n
		}
		g := randomDAG(t, rng, n, root, 2+rng.Intn(5))
		for _, e := range g.Edges() {
			// An edge toward the root in send order: the verified-on-arrival
			// recurrences of the replaced evaluators cannot express it.
			if (e[1] < e[0]) == (root == 1) {
				backward++
			}
		}
		for _, p := range []float64{0, 0.15, 0.5} {
			want, err := g.ExactAuthProb(p)
			if err != nil {
				t.Fatal(err)
			}
			// The same loss as one state, and as two states that differ
			// in name only: a degenerate channel is i.i.d.
			for _, ch := range []depgraph.Channel{
				loss.Bernoulli{P: p}.Channel(),
				loss.GilbertElliott{PGoodToBad: 0.2, PBadToGood: 0.6, PGood: p, PBad: p}.Channel(),
			} {
				got, err := g.ExactAuthProbDelivery(depgraph.Delivery{Channel: ch, Root: depgraph.Conditioned})
				if err != nil {
					t.Fatalf("trial %d (n=%d root=%d): %v", trial, n, root, err)
				}
				for i := 1; i <= n; i++ {
					if math.Abs(got.Q[i]-want.Q[i]) > 1e-12 {
						t.Errorf("trial %d (n=%d root=%d, %d states) p=%v: Q[%d] = %v, enumeration %v",
							trial, n, root, len(ch.Loss), p, i, got.Q[i], want.Q[i])
					}
				}
			}
		}
	}
	if backward == 0 {
		t.Error("no random graph had an edge toward the root in send order")
	}
}

// hmmEnumerate is the reference under a channel with memory: every
// reception pattern of the block, weighted by the forward probability of the
// hidden chain emitting it, with q_i conditioned on the root arriving.
func hmmEnumerate(t *testing.T, g *depgraph.Graph, ch depgraph.Channel) []float64 {
	t.Helper()
	n, m := g.N(), len(ch.Loss)
	num := make([]float64, n+1)
	den := make([]float64, n+1)
	received := make([]bool, n+1)
	alpha := make([]float64, m)
	next := make([]float64, m)
	for pattern := 0; pattern < 1<<n; pattern++ {
		if pattern&(1<<(g.Root()-1)) == 0 {
			continue
		}
		copy(alpha, ch.Stationary)
		for i := 1; i <= n; i++ {
			received[i] = pattern&(1<<(i-1)) != 0
			clear(next)
			for s, a := range alpha {
				emit := ch.Loss[s]
				if received[i] {
					emit = 1 - emit
				}
				for s2, tr := range ch.Trans[s] {
					next[s2] += a * emit * tr
				}
			}
			alpha, next = next, alpha
		}
		prob := 0.0
		for _, a := range alpha {
			prob += a
		}
		verifiable, err := g.VerifiableSet(received)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= n; i++ {
			if received[i] {
				den[i] += prob
				if verifiable[i] {
					num[i] += prob
				}
			}
		}
	}
	q := make([]float64, n+1)
	for i := 1; i <= n; i++ {
		q[i] = num[i] / den[i]
	}
	return q
}

func TestExactChannelMatchesHMMEnumeration(t *testing.T) {
	// A cycle-biased chain: 0 -> 1 -> 2 -> 0 is likelier than the way back,
	// so detailed balance fails and the root-last sweep must really run
	// against the time-reversed transitions.
	mc, err := loss.NewMarkovChain(
		[][]float64{{0.6, 0.35, 0.05}, {0.1, 0.5, 0.4}, {0.45, 0.05, 0.5}},
		[]float64{0.02, 0.3, 0.85},
	)
	if err != nil {
		t.Fatal(err)
	}
	ch := mc.Channel()
	pi := ch.Stationary
	if math.Abs(pi[0]*ch.Trans[0][1]-pi[1]*ch.Trans[1][0]) < 1e-3 {
		t.Fatal("the probe chain is reversible; it cannot tell the sweep directions apart")
	}
	for _, c := range []struct {
		id      string
		n, x, y int
	}{
		{"rohatgi", 12, 0, 0},
		{"emss", 13, 2, 1},
		{"emss", 13, 2, 3},
		{"augchain", 13, 2, 2},
		{"augchain", 12, 3, 3}, // unaligned: a dangling run of inserted packets
	} {
		g := schemeGraph(t, c.id, c.n, c.x, c.y)
		got, err := g.ExactAuthProbDelivery(depgraph.Delivery{Channel: ch, Root: depgraph.Conditioned})
		if err != nil {
			t.Fatal(err)
		}
		want := hmmEnumerate(t, g, ch)
		for i := 1; i <= c.n; i++ {
			if math.Abs(got.Q[i]-want[i]) > 1e-12 {
				t.Errorf("%s(%d,%d) n=%d: Q[%d] = %v, HMM enumeration %v", c.id, c.x, c.y, c.n, i, got.Q[i], want[i])
			}
		}
	}
}

// TestExactChannelRejects: what the sweep cannot carry is an error, never
// a number.
func TestExactChannelRejects(t *testing.T) {
	iid := loss.Bernoulli{P: 0.1}.Channel()

	mid, err := depgraph.New(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{1, 2, 4, 5} {
		mid.MustAddEdge(3, v)
	}
	if _, err := mid.ExactAuthProbDelivery(depgraph.Delivery{Channel: iid, Root: depgraph.Conditioned}); !errors.Is(err, depgraph.ErrFrontier) {
		t.Errorf("root in mid-block: err = %v, want ErrFrontier", err)
	}

	// E_{3,7}: each packet is read 21 positions on, one bit past the cap.
	if _, err := schemeGraph(t, "emss", 60, 3, 7).ExactAuthProbDelivery(depgraph.Delivery{Channel: iid, Root: depgraph.Conditioned}); !errors.Is(err, depgraph.ErrFrontier) {
		t.Errorf("21-bit frontier: err = %v, want ErrFrontier", err)
	}
	if _, err := schemeGraph(t, "emss", 26, 4, 5).ExactAuthProbDelivery(depgraph.Delivery{Channel: iid, Root: depgraph.Conditioned}); err != nil {
		t.Errorf("20-bit frontier: %v", err)
	}

	g := schemeGraph(t, "emss", 10, 2, 1)
	for name, ch := range map[string]depgraph.Channel{
		"empty":           {},
		"ragged":          {Trans: [][]float64{{1}}, Loss: []float64{0.1, 0.2}, Stationary: []float64{1}},
		"loss > 1":        {Trans: [][]float64{{1}}, Loss: []float64{1.5}, Stationary: []float64{1}},
		"loss NaN":        {Trans: [][]float64{{1}}, Loss: []float64{math.NaN()}, Stationary: []float64{1}},
		"row sum":         {Trans: [][]float64{{0.5, 0.4}, {0.5, 0.5}}, Loss: []float64{0, 1}, Stationary: []float64{0.5, 0.5}},
		"not stationary":  {Trans: [][]float64{{0.9, 0.1}, {0.5, 0.5}}, Loss: []float64{0, 1}, Stationary: []float64{0.5, 0.5}},
		"root never sent": {Trans: [][]float64{{1}}, Loss: []float64{1}, Stationary: []float64{1}},
	} {
		if res, err := g.ExactAuthProbDelivery(depgraph.Delivery{Channel: ch, Root: depgraph.Conditioned}); err == nil {
			t.Errorf("channel %q accepted: q_min = %v", name, res.QMin)
		}
	}
}
