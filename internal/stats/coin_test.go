package stats

import (
	"math"
	"math/bits"
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

// TestFlipLanesMarginals: every lane of FlipLanes comes up with its own
// coin's probability, whichever coin sel gives it. For each pair of the
// probabilities below (including the two that never and always come up,
// and the two one ulp of the 53-bit grid inside them) the up-count of each
// coin's lanes under random sel lies within 4σ of the binomial mean — which
// for the four extreme coins leaves no slack at all.
func TestFlipLanesMarginals(t *testing.T) {
	ps := []float64{0, 0x1p-53, 0.011, 0.1, 0.5, 1 - 0x1p-53, 1}
	rng := NewRNG(0x1a4e5)
	const calls = 1500
	for _, p0 := range ps {
		for _, p1 := range ps {
			c0, c1 := NewCoin(p0), NewCoin(p1)
			var lanes, ups [2]int
			for call := 0; call < calls; call++ {
				sel := rng.Uint64()
				up := rng.FlipLanes(c0, c1, sel)
				lanes[1] += bits.OnesCount64(sel)
				ups[1] += bits.OnesCount64(up & sel)
				lanes[0] += bits.OnesCount64(^sel)
				ups[0] += bits.OnesCount64(up &^ sel)
			}
			for k, p := range [2]float64{p0, p1} {
				mean := float64(lanes[k]) * p
				sigma := math.Sqrt(float64(lanes[k]) * p * (1 - p))
				if d := math.Abs(float64(ups[k]) - mean); d > 4*sigma {
					t.Errorf("c0=%v c1=%v: the c%d lanes came up %d times in %d, want %.1f ± 4×%.1f",
						p0, p1, k, ups[k], lanes[k], mean, sigma)
				}
			}
		}
	}
}

// TestFlipLanesBitOrder pins the comparison to the draw: at p = 2^-k the
// threshold is the single bit 53-k, so a lane comes up exactly when the top
// k bits of its integer — bit t of each of the first k words — are all zero.
func TestFlipLanesBitOrder(t *testing.T) {
	for k := 1; k <= 3; k++ {
		coin := NewCoin(math.Ldexp(1, -k))
		for seed := uint64(0); seed < 50; seed++ {
			ref := NewRNG(seed)
			var ones uint64
			for i := 0; i < k; i++ {
				ones |= ref.Uint64()
			}
			if got := NewRNG(seed).FlipLanes(coin, coin, 0); got != ^ones {
				t.Fatalf("p=2^-%d seed %d: FlipLanes = %#x, want %#x", k, seed, got, ^ones)
			}
		}
	}
}

// TestFlipLanesCertainCoinsDrawNothing: lanes whose coins never or always
// come up are decided without the generator, as Flip decides them.
func TestFlipLanesCertainCoinsDrawNothing(t *testing.T) {
	never, always := NewCoin(0), NewCoin(1)
	r := NewRNG(8)
	for _, sel := range []uint64{0, ^uint64(0), 0xf0f0f0f0f0f0f0f0} {
		if got := r.FlipLanes(never, always, sel); got != sel {
			t.Errorf("sel %#x: FlipLanes(never, always) = %#x", sel, got)
		}
		if got := r.FlipLanes(always, never, sel); got != ^sel {
			t.Errorf("sel %#x: FlipLanes(always, never) = %#x", sel, got)
		}
	}
	if *r != *NewRNG(8) {
		t.Error("certain coins drew from the generator")
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

// BenchmarkFlip64 is 64 coins at p = 0.1 per op: 64 Flips, one word each,
// against one FlipLanes, about seven to eight words for all 64 lanes.
func BenchmarkFlip64(b *testing.B) {
	coin := NewCoin(0.1)
	var sink uint64
	b.Run("Flip", func(b *testing.B) {
		r := NewRNG(1)
		for i := 0; i < b.N; i++ {
			var up uint64
			for t := 0; t < 64; t++ {
				if r.Flip(coin) {
					up |= 1 << t
				}
			}
			sink ^= up
		}
	})
	b.Run("FlipLanes", func(b *testing.B) {
		r := NewRNG(1)
		for i := 0; i < b.N; i++ {
			sink ^= r.FlipLanes(coin, coin, 0)
		}
	})
	benchSink = sink
}

var benchSink uint64
