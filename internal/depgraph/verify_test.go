package depgraph

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"

	"mcauth/internal/stats"
)

func TestVerifiableSetChain(t *testing.T) {
	g := chainGraph(t, 5)
	received := []bool{false, true, true, false, true, true}
	verifiable, err := g.VerifiableSet(received)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, true, false, false, false}
	for i := 1; i <= 5; i++ {
		if verifiable[i] != want[i] {
			t.Errorf("verifiable[%d] = %v, want %v (chain broken at 3)", i, verifiable[i], want[i])
		}
	}
}

func TestVerifiableSetRedundantPath(t *testing.T) {
	g := emssGraph(t, 5)
	// Losing P_2 does not break P_3..P_5 thanks to the skip edges.
	received := []bool{false, true, false, true, true, true}
	verifiable, err := g.VerifiableSet(received)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 3, 4, 5} {
		if !verifiable[i] {
			t.Errorf("verifiable[%d] = false, want true", i)
		}
	}
	if verifiable[2] {
		t.Error("lost packet reported verifiable")
	}
}

func TestVerifiableSetRootForcedReceived(t *testing.T) {
	g := chainGraph(t, 3)
	received := []bool{false, false, true, true}
	verifiable, err := g.VerifiableSet(received)
	if err != nil {
		t.Fatal(err)
	}
	// Root is always treated as received (paper assumption).
	if !verifiable[1] || !verifiable[2] || !verifiable[3] {
		t.Errorf("verifiable = %v, want all true", verifiable[1:])
	}
}

func TestVerifiableSetLengthCheck(t *testing.T) {
	g := chainGraph(t, 3)
	if _, err := g.VerifiableSet([]bool{true, true}); err == nil {
		t.Error("wrong-length received slice should fail")
	}
}

func TestExactAuthProbChainMatchesClosedForm(t *testing.T) {
	// Rohatgi closed form: q_i = (1-p)^(i-2) for i >= 2, q_min = (1-p)^(n-2).
	n := 8
	g := chainGraph(t, n)
	for _, p := range []float64{0.1, 0.3, 0.5} {
		res, err := g.ExactAuthProb(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 2; i <= n; i++ {
			want := math.Pow(1-p, float64(i-2))
			if math.Abs(res.Q[i]-want) > 1e-12 {
				t.Errorf("p=%v: Q[%d] = %v, want %v", p, i, res.Q[i], want)
			}
		}
		wantMin := math.Pow(1-p, float64(n-2))
		if math.Abs(res.QMin-wantMin) > 1e-12 {
			t.Errorf("p=%v: QMin = %v, want %v", p, res.QMin, wantMin)
		}
	}
}

func TestExactAuthProbEdgeCases(t *testing.T) {
	g := chainGraph(t, 5)
	res, err := g.ExactAuthProb(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.QMin != 1 {
		t.Errorf("p=0: QMin = %v, want 1", res.QMin)
	}
	res, err = g.ExactAuthProb(1)
	if err != nil {
		t.Fatal(err)
	}
	// With total loss the conditioning event "P_i received" has
	// probability zero for every non-root packet; the documented
	// convention reports q_i = 0.
	for i := 2; i <= 5; i++ {
		if res.Q[i] != 0 {
			t.Errorf("p=1: Q[%d] = %v, want 0 by convention", i, res.Q[i])
		}
	}
	if res.Q[1] != 1 {
		t.Errorf("p=1: root Q = %v, want 1", res.Q[1])
	}
}

func TestExactAuthProbValidation(t *testing.T) {
	g := chainGraph(t, 5)
	if _, err := g.ExactAuthProb(-0.1); err == nil {
		t.Error("negative p should fail")
	}
	if _, err := g.ExactAuthProb(1.1); err == nil {
		t.Error("p > 1 should fail")
	}
	big := chainGraph(t, 30)
	if _, err := big.ExactAuthProb(0.1); err == nil {
		t.Error("n > exact limit should fail")
	}
}

func TestMonteCarloMatchesExact(t *testing.T) {
	g := emssGraph(t, 12)
	p := 0.3
	exact, err := g.ExactAuthProb(p)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := g.MonteCarloAuthProbInto(BernoulliPatternInto(p), 60000, stats.NewRNG(4242), MCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= g.N(); i++ {
		iv, err := stats.WilsonInterval(mc.VerifiedCounts[i], mc.ReceivedCounts[i], 0.9999)
		if err != nil {
			t.Fatal(err)
		}
		if !iv.Contains(exact.Q[i]) {
			t.Errorf("vertex %d: exact %v outside MC interval %+v (mc %v)", i, exact.Q[i], iv, mc.Q[i])
		}
	}
	if math.Abs(mc.QMin-exact.QMin) > 0.02 {
		t.Errorf("QMin mc %v vs exact %v", mc.QMin, exact.QMin)
	}
}

func TestMonteCarloValidation(t *testing.T) {
	g := chainGraph(t, 4)
	rng := stats.NewRNG(1)
	if _, err := g.MonteCarloAuthProbInto(BernoulliPatternInto(0.1), 0, rng, MCOptions{}); err == nil {
		t.Error("zero trials should fail")
	}
	if _, err := g.MonteCarloAuthProbInto(nil, 10, rng, MCOptions{}); err == nil {
		t.Error("nil pattern should fail")
	}
}

// bernoulliTrial is the per-trial form of BernoulliPatternInto's loss model,
// for the tests that hold the kernel to a scalar trial loop: one flip per
// packet, in packet order.
func bernoulliTrial(p float64) func(*stats.RNG, []bool) {
	lose := stats.NewCoin(p)
	return func(rng *stats.RNG, received []bool) {
		for i := 1; i < len(received); i++ {
			received[i] = !rng.Flip(lose)
		}
	}
}

func TestBernoulliPatternRates(t *testing.T) {
	rng := stats.NewRNG(5)
	pattern := BernoulliPatternInto(0.25)
	lost := 0
	const groups, n = 32, 50 // 2048 patterns
	recv := make([]uint64, n+1)
	for i := 0; i < groups; i++ {
		pattern(rng, recv, ^uint64(0))
		for j := 1; j <= n; j++ {
			lost += 64 - bits.OnesCount64(recv[j])
		}
	}
	rate := float64(lost) / float64(groups*64*n)
	if math.Abs(rate-0.25) > 0.01 {
		t.Errorf("loss rate %v, want ~0.25", rate)
	}
}

// Property: verifiability is monotone — receiving strictly more packets
// never makes a previously verifiable packet unverifiable.
func TestVerifiabilityMonotoneProperty(t *testing.T) {
	g := emssGraph(t, 10)
	f := func(maskA, extra uint16) bool {
		recvA := make([]bool, 11)
		recvB := make([]bool, 11)
		for i := 1; i <= 10; i++ {
			recvA[i] = maskA&(1<<(i-1)) != 0
			recvB[i] = recvA[i] || extra&(1<<(i-1)) != 0
		}
		va, err := g.VerifiableSet(recvA)
		if err != nil {
			return false
		}
		vb, err := g.VerifiableSet(recvB)
		if err != nil {
			return false
		}
		for i := 1; i <= 10; i++ {
			if va[i] && !vb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a verifiable packet is always received (except the root, which
// is assumed received) and the root is always verifiable.
func TestVerifiableSubsetOfReceivedProperty(t *testing.T) {
	g := emssGraph(t, 10)
	f := func(mask uint16) bool {
		recv := make([]bool, 11)
		for i := 1; i <= 10; i++ {
			recv[i] = mask&(1<<(i-1)) != 0
		}
		recv[g.Root()] = true
		v, err := g.VerifiableSet(recv)
		if err != nil {
			return false
		}
		if !v[g.Root()] {
			return false
		}
		for i := 1; i <= 10; i++ {
			if v[i] && !recv[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
