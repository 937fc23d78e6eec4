package augchain

import (
	"math"
	"slices"
	"testing"

	"mcauth/internal/depgraph"
	"mcauth/internal/loss"
	"mcauth/internal/scheme/emss"
)

// The paper's independence recurrence (Equation 10,
// depgraph.Graph.Recurrence) and the exact evaluator on the graph C_{a,b}
// emits, in the paper's reversed indexing: P(x,y) — segment x, position y
// in [0,b], y = 0 the first-level chain packet — is index x(b+1)+y+1, the
// signature packet P(0,0) being index 1.
func augIndex(b, x, y int) int { return x*(b+1) + y + 1 }

func augGraph(t *testing.T, n, a, b int) *depgraph.Graph {
	t.Helper()
	g, err := Config{N: n, A: a, B: b}.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// reversed re-indexes an evaluator's result like the paper: the signature
// packet, sent last, becomes index 1.
func reversed(t *testing.T, res depgraph.AuthResult, err error) depgraph.AuthResult {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	slices.Reverse(res.Q[1:])
	return res
}

// augQ is the recurrence on the emitted C_{a,b} graph, reversed.
func augQ(t *testing.T, n, a, b int, p float64) depgraph.AuthResult {
	t.Helper()
	res, err := augGraph(t, n, a, b).Recurrence(p)
	return reversed(t, res, err)
}

// augChainQ is the exact Q of the emitted C_{a,b} graph, reversed.
func augChainQ(t *testing.T, n, a, b int, p float64) depgraph.AuthResult {
	t.Helper()
	res, err := augGraph(t, n, a, b).ExactAuthProbDelivery(depgraph.Delivery{Channel: loss.Bernoulli{P: p}.Channel(), Root: depgraph.Conditioned})
	return reversed(t, res, err)
}

func TestAugChainValidation(t *testing.T) {
	for _, c := range []Config{
		{N: 100, A: 0, B: 3},
		{N: 100, A: 3, B: 0},
		{N: 3, A: 3, B: 3}, // n < b+2
	} {
		if _, err := c.Graph(); err == nil {
			t.Errorf("config %+v should fail", c)
		}
	}
	if _, err := augGraph(t, 100, 3, 3).Recurrence(1.5); err == nil {
		t.Error("p = 1.5 should fail")
	}
}

func TestAugChainIndexing(t *testing.T) {
	// Equation (10)'s grid on the emitted C_{2,3} graph of 17 packets, sent
	// in reverse: reversed index r is send index 18-r.
	c := Config{N: 17, A: 2, B: 3}
	g := augGraph(t, c.N, c.A, c.B)
	send := func(x, y int) int { return c.N + 1 - augIndex(c.B, x, y) }
	if g.Root() != send(0, 0) {
		t.Errorf("root %d, want P(0,0) at send index %d", g.Root(), send(0, 0))
	}
	// P(1,0) hangs off P(0,0) alone: at a = 2 both chain links name it.
	if got := g.InNeighbors(send(1, 0)); !slices.Equal(got, []int{send(0, 0)}) {
		t.Errorf("P(1,0) providers %v, want P(0,0)", got)
	}
	// P(1,2) hangs off P(1,3) and P(1,0).
	if got := g.InNeighbors(send(1, 2)); !slices.Equal(got, []int{send(1, 3), send(1, 0)}) {
		t.Errorf("P(1,2) providers %v, want P(1,3), P(1,0)", got)
	}
	// Index 17 is P(4,0), the last chain packet; P(4,1) would be 18.
	if augIndex(c.B, 4, 0) != g.N() || augIndex(c.B, 4, 1) <= g.N() {
		t.Errorf("P(4,0) at %d, P(4,1) at %d of %d", augIndex(c.B, 4, 0), augIndex(c.B, 4, 1), g.N())
	}
	if got := c.Segments(); got != 5 {
		t.Errorf("Segments = %d, want 5", got)
	}
}

func TestAugChainChainPacketsNearSignature(t *testing.T) {
	res := augQ(t, 100, 3, 3, 0.5)
	// Chain packets x <= a are directly covered by the signature packet.
	for x := 0; x <= 3; x++ {
		if got := res.Q[augIndex(3, x, 0)]; got != 1 {
			t.Errorf("chain packet x=%d q = %v, want 1", x, got)
		}
	}
	// A later chain packet must be below 1 at p=0.5.
	if got := res.Q[augIndex(3, 10, 0)]; got >= 1 {
		t.Errorf("chain packet x=10 q = %v, want < 1", got)
	}
}

func TestAugChainNoLoss(t *testing.T) {
	if q := augQ(t, 200, 3, 3, 0).QMin; q != 1 {
		t.Errorf("QMin at p=0 = %v, want 1", q)
	}
}

func TestAugChainMonotoneInP(t *testing.T) {
	prev := 1.0
	for _, p := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		qmin := augQ(t, 500, 3, 3, p).QMin
		if qmin > prev+1e-12 {
			t.Errorf("QMin increased with p=%v", p)
		}
		prev = qmin
	}
}

func TestAugChainQMinRisesWithA(t *testing.T) {
	// Paper, Figure 5: q_min drops when a decreases (fixed n).
	prev := -1.0
	for _, a := range []int{1, 2, 4, 8} {
		qmin := augQ(t, 1000, a, 3, 0.3).QMin
		if qmin < prev-1e-9 {
			t.Errorf("QMin fell when a rose to %d", a)
		}
		prev = qmin
	}
}

func TestAugChainQMinRisesWithBFixedN(t *testing.T) {
	// Paper, Figure 5: for fixed block size n, increasing b shortens the
	// first-level chain, so q_min rises.
	prev := -1.0
	for _, b := range []int{1, 3, 7, 15} {
		qmin := augQ(t, 1000, 3, b, 0.3).QMin
		if qmin < prev-1e-9 {
			t.Errorf("QMin fell when b rose to %d (fixed n)", b)
		}
		prev = qmin
	}
}

func TestAugChainInsensitiveToBFixedLevel1(t *testing.T) {
	// Paper, Figure 6: with the first-level length fixed (n grows with
	// b), q_min barely moves once b is larger than a small value.
	var qmins []float64
	for _, b := range []int{2, 4, 8, 16} {
		qmins = append(qmins, augQ(t, NForLevel1Length(100, b), 3, b, 0.3).QMin)
	}
	for i := 1; i < len(qmins); i++ {
		if math.Abs(qmins[i]-qmins[0]) > 0.02 {
			t.Errorf("QMin varies with b under fixed level-1 length: %v", qmins)
		}
	}
}

func TestNForLevel1Length(t *testing.T) {
	// level1 chain packets at reversed indices 1, b+2, 2(b+1)+1, ...
	if got := NForLevel1Length(5, 3); got != 17 {
		t.Errorf("NForLevel1Length(5,3) = %d, want 17", got)
	}
	if got := (Config{N: NForLevel1Length(5, 3), A: 2, B: 3}).Segments(); got != 5 {
		t.Errorf("Segments = %d, want 5", got)
	}
	// AlignN rounds up to the next such size, at least one whole segment.
	for _, c := range []struct{ n, b, want int }{{17, 3, 17}, {18, 3, 21}, {1000, 3, 1001}, {3, 3, 5}} {
		if got := AlignN(c.n, c.b); got != c.want {
			t.Errorf("AlignN(%d,%d) = %d, want %d", c.n, c.b, got, c.want)
		}
	}
}

func TestAugChainSimilarToEMSSE21(t *testing.T) {
	// Paper, Figures 8-9: AC C_{3,3} and EMSS E_{2,1} perform very
	// similarly (both link each packet to two others). Use a block that
	// ends on a chain-packet boundary (n = 250*(b+1)+1) so the last
	// segment is not dangling.
	g, err := emss.Config{N: 1000, M: 2, D: 1}.Graph()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0.1, 0.3} {
		ac := augQ(t, 1001, 3, 3, p).QMin
		e21, err := g.Recurrence(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ac-e21.QMin) > 0.1 {
			t.Errorf("p=%v: AC %v vs EMSS %v diverge", p, ac, e21.QMin)
		}
	}
}

func TestAugChainRangeProperty(t *testing.T) {
	for _, c := range []struct {
		n, a, b int
		p       float64
	}{
		{50, 1, 1, 0.5},
		{51, 5, 4, 0.9},
		{52, 2, 9, 0.2},
	} {
		res := augQ(t, c.n, c.a, c.b, c.p)
		for i := 1; i <= c.n; i++ {
			if res.Q[i] < 0 || res.Q[i] > 1 || math.IsNaN(res.Q[i]) {
				t.Fatalf("config %+v: Q[%d] = %v", c, i, res.Q[i])
			}
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
