package stats

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via SplitMix64). Simulations in this repository take
// an explicit *RNG rather than relying on a global source so that every
// experiment is reproducible from its seed.
type RNG struct {
	// The four state words are fields, not an array, which keeps Uint64
	// within the compiler's inlining budget: the sampler loops that flip a
	// coin per packet then run the generator step in line.
	s0, s1, s2, s3 uint64
}

// NewRNG returns a generator seeded deterministically from seed. It stays
// small enough to inline, so a caller that copies the generator out
// (*NewRNG(seed)) allocates nothing.
func NewRNG(seed uint64) *RNG {
	r := new(RNG)
	r.seed(seed)
	return r
}

// seed sets the state to the SplitMix64 expansion of seed.
func (r *RNG) seed(seed uint64) {
	x := seed
	r.s0, r.s1, r.s2, r.s3 = splitMix64(&x), splitMix64(&x), splitMix64(&x), splitMix64(&x)
}

func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := bits.RotateLeft64(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Coin is a Bernoulli trial prepared once and flipped many times: the
// probability as an integer threshold on the 53 bits Float64 is made of.
// Float64 returns k/2^53 for the integer k = Uint64()>>11, and both k/2^53
// and p·2^53 are exact in float64, so k/2^53 < p holds exactly when
// k < ceil(p·2^53): Flip draws the word Float64() < p would draw and gives
// the same answer without the conversion, the division or the float compare.
// The zero value never comes up.
type Coin struct {
	// threshold is ceil(p·2^53), in [1, 2^53-1] for 0 < p < 1. The two ends
	// are the coins that draw nothing: 0 never comes up, 2^53 always does.
	threshold uint64
}

const coinAlways = 1 << 53

// NewCoin prepares a coin that comes up with probability p. p <= 0 never
// comes up and p >= 1 always does, neither drawing from the generator; NaN
// is no probability and is taken as never (converting it to an integer
// would be implementation-defined).
func NewCoin(p float64) Coin {
	switch {
	case !(p > 0):
		return Coin{}
	case p >= 1:
		return Coin{threshold: coinAlways}
	}
	return Coin{threshold: uint64(math.Ceil(p * coinAlways))}
}

// Flip flips a prepared coin.
func (r *RNG) Flip(c Coin) bool {
	if c.threshold == 0 || c.threshold == coinAlways {
		return c.threshold != 0
	}
	return r.Uint64()>>11 < c.threshold
}

// FlipLanes flips 64 independent coins, one per bit: bit t of the result is
// a flip of c1 where bit t of sel is set, else of c0. Each lane's law is
// exactly Flip's — it compares a uniform 53-bit integer with the coin's
// threshold — but the 64 integers are compared bit-sliced, most significant
// bit first: round b draws one word whose bit t is bit b of lane t's integer,
// and every lane whose bit differs from its threshold's bit is decided (up
// where the threshold has the 1). Each round decides each open lane with
// probability 1/2, so 64 lanes need about seven to eight words instead of
// 64; the loop ends once no lane is open. A lane that matches its threshold
// in all 53 bits equals it, which is not below it. Lanes whose coin never or
// always comes up decide without drawing, as Flip's do, so a call in which
// every lane has such a coin leaves the generator alone.
func (r *RNG) FlipLanes(c0, c1 Coin, sel uint64) uint64 {
	var up, open uint64
	switch c0.threshold {
	case 0:
	case coinAlways:
		up = ^sel
	default:
		open = ^sel
	}
	switch c1.threshold {
	case 0:
	case coinAlways:
		up |= sel
	default:
		open |= sel
	}
	for b := 52; open != 0 && b >= 0; b-- {
		w := r.Uint64()
		thr := -(c1.threshold>>b&1)&sel | -(c0.threshold>>b&1)&^sel
		up |= open & thr &^ w
		open &^= w ^ thr
	}
	return up
}

// Bernoulli returns true with probability p. A loop that flips one
// probability many times prepares it once with NewCoin.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Flip(NewCoin(p))
}

// Normal returns a Gaussian sample with the given mean and standard
// deviation, using the Box-Muller transform.
func (r *RNG) Normal(mu, sigma float64) float64 {
	// Avoid log(0) by mapping u1 into (0, 1].
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	z := sqrtNeg2Log(u1) * cosTwoPi(u2)
	return mu + sigma*z
}

// Split derives an independent generator; useful for fanning a seed out to
// parallel receivers without correlating their streams.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}
