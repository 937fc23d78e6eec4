package stats

import (
	"math"
	"testing"
)

// TestRNGStreamPinned holds the generator to the words it produced before
// its state moved from an array into four fields: every seeded result in the
// repository is a function of this stream.
func TestRNGStreamPinned(t *testing.T) {
	r := NewRNG(42)
	for i, want := range []uint64{0x15780b2e0c2ec716, 0x6104d9866d113a7e, 0xae17533239e499a1, 0xecb8ad4703b360a1} {
		if got := r.Uint64(); got != want {
			t.Fatalf("NewRNG(42) word %d = %#x, want %#x", i, got, want)
		}
	}
	if got := NewRNG(42).Split().Uint64(); got != 0x8ee445d14631c453 {
		t.Errorf("NewRNG(42).Split() first word = %#x, want 0x8ee445d14631c453", got)
	}
}

// coinTestProbabilities are the issue's named probabilities and 12 500 drawn
// ones: uniform ones, ones scaled down through the binades (where p·2^53 has
// a fraction), exact multiples of 2^-53 and their float64 neighbours (where
// the compare changes its answer within one ulp).
func coinTestProbabilities() []float64 {
	ps := []float64{
		0, 5e-324, 1e-300, 0x1p-53, 0x1p-52, 3 * 0x1p-53, 12345 * 0x1p-53,
		0.1, 0.25, 0.5, 1 - 0x1p-52, 1 - 0x1p-53, 1, -0.5, 1.5, math.Inf(1), math.Inf(-1),
	}
	rng := NewRNG(0xc01)
	for i := 0; i < 2500; i++ {
		u := rng.Float64()
		k := float64(rng.Uint64()>>11) * 0x1p-53
		ps = append(ps, u, math.Ldexp(u, -rng.Intn(80)), k, math.Nextafter(k, 0), math.Nextafter(k, 1))
	}
	return ps
}

// TestCoinThresholdIsTheFloatCompare checks the pure predicate behind Coin:
// for the 53-bit integer k a draw yields, float64(k)/2^53 < p exactly when
// k < ceil(p·2^53) — at both ends of k's range and around the threshold,
// where the two could part.
func TestCoinThresholdIsTheFloatCompare(t *testing.T) {
	const top = 1<<53 - 1
	for _, p := range coinTestProbabilities() {
		thr := NewCoin(p).threshold
		if thr > coinAlways {
			t.Fatalf("p=%v: threshold %d above 2^53", p, thr)
		}
		ks := []uint64{0, 1, top - 1, top}
		for d := uint64(0); d <= 2; d++ {
			if thr >= d {
				ks = append(ks, thr-d)
			}
			ks = append(ks, thr+d)
		}
		for _, k := range ks {
			if k > top {
				continue
			}
			if float, integer := float64(k)/(1<<53) < p, k < thr; float != integer {
				t.Fatalf("p=%v (threshold %d), k=%d: float compare says %v, integer compare %v", p, thr, k, float, integer)
			}
		}
	}
}

// floatBernoulli is Bernoulli as it was before Coin: the reference Flip must
// match draw for draw.
func floatBernoulli(r *RNG, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// TestFlipMatchesFloatBernoulli runs Flip (prepared once), Bernoulli and the
// float compare they replace on equal generators: the same verdict on each
// of 1000 draws and the same generator afterwards — so also the same number
// of words drawn, none for p <= 0 or p >= 1.
func TestFlipMatchesFloatBernoulli(t *testing.T) {
	for i, p := range coinTestProbabilities() {
		a, b, c := NewRNG(uint64(i)), NewRNG(uint64(i)), NewRNG(uint64(i))
		coin := NewCoin(p)
		for draw := 0; draw < 1000; draw++ {
			want := floatBernoulli(a, p)
			if got := b.Flip(coin); got != want {
				t.Fatalf("p=%v draw %d: Flip %v, float compare %v", p, draw, got, want)
			}
			if got := c.Bernoulli(p); got != want {
				t.Fatalf("p=%v draw %d: Bernoulli %v, float compare %v", p, draw, got, want)
			}
		}
		if *a != *b || *a != *c {
			t.Fatalf("p=%v: generators differ after 1000 draws", p)
		}
		if (p <= 0 || p >= 1) && *a != *NewRNG(uint64(i)) {
			t.Fatalf("p=%v: a certain outcome drew from the generator", p)
		}
	}
}

// TestCoinNaNNeverComesUp: NaN is no probability. Every constructor that
// takes one refuses it; should one reach a coin anyway, the coin is the
// never-coin by an explicit case, not by whatever uint64(NaN) converts to.
func TestCoinNaNNeverComesUp(t *testing.T) {
	if NewCoin(math.NaN()) != (Coin{}) {
		t.Fatalf("NewCoin(NaN) = %+v, want the zero coin", NewCoin(math.NaN()))
	}
	r := NewRNG(5)
	if r.Bernoulli(math.NaN()) || *r != *NewRNG(5) {
		t.Error("Bernoulli(NaN) came up or drew from the generator")
	}
}
