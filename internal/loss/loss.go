// Package loss provides packet-loss channel models. The paper's analysis
// uses an independent random (Bernoulli) loss model (Section 4.1); the
// augmented chain was designed against single bursts, and the paper's
// future work names the m-state Markov model — both are covered here by the
// single-burst and Gilbert-Elliott models. All models implement Model and
// adapt to the depgraph Monte-Carlo kernel via PatternInto.
package loss

import (
	"fmt"

	"mcauth/internal/depgraph"
	"mcauth/internal/stats"
)

// Model decides, packet by packet, whether each packet of a stream is lost.
// Implementations are stateful across a block (bursty models) but reset per
// SampleInto call.
type Model interface {
	// SampleInto draws one pattern into received[1..len(received)-1]:
	// true means received. Index 0 is the caller's and is never written,
	// so a destination of length 0 or 1 is left as it is. It is the form
	// the Monte-Carlo and netsim hot loops call, reusing one scratch.
	SampleInto(rng *stats.RNG, received []bool)
	// Rate returns the model's long-run loss probability.
	Rate() float64
	// Name identifies the model in reports.
	Name() string
}

// Spec is the loss a run's receivers see on their last hop: the long-run
// rate P, in bursts of mean length Burst packets. Burst <= 1 is the
// paper's i.i.d. loss; above 1 it is the Gilbert–Elliott chain NewBursty
// builds at the same stationary rate.
type Spec struct {
	P, Burst float64
}

// Model builds the channel s describes.
func (s Spec) Model() (Model, error) {
	if s.Burst > 1 {
		return NewBursty(s.P, s.Burst)
	}
	return NewBernoulli(s.P)
}

// Channel is the loss process s describes, as the exact evaluator sweeps
// it.
func (s Spec) Channel() (depgraph.Channel, error) {
	if s.Burst > 1 {
		ge, err := NewBursty(s.P, s.Burst)
		return ge.Channel(), err
	}
	b, err := NewBernoulli(s.P)
	return b.Channel(), err
}

// PatternInto adapts a Model to the depgraph Monte-Carlo estimator. A
// Bernoulli or Gilbert-Elliott model samples the kernel's lanes natively,
// with bit-sliced coins; their lanes follow the model's law but not
// SampleInto's stream. Every other model runs SampleInto once per lane
// through depgraph.PerTrial, which keeps that model's stream.
func PatternInto(m Model) depgraph.ReceiveLanes {
	switch m := m.(type) {
	case Bernoulli:
		return depgraph.BernoulliPatternInto(m.P)
	case GilbertElliott:
		return m.SampleLanes
	}
	return depgraph.PerTrial(m.SampleInto)
}

// Bernoulli is the paper's i.i.d. loss model: each packet lost with
// probability P.
type Bernoulli struct {
	P float64
}

var _ Model = Bernoulli{}

// NewBernoulli validates p and returns the model.
func NewBernoulli(p float64) (Bernoulli, error) {
	if !(p >= 0 && p <= 1) { // spelled so that NaN fails
		return Bernoulli{}, fmt.Errorf("loss: probability %v out of [0,1]", p)
	}
	return Bernoulli{P: p}, nil
}

// SampleInto implements Model.
func (b Bernoulli) SampleInto(rng *stats.RNG, recv []bool) {
	lose := stats.NewCoin(b.P)
	for i := 1; i < len(recv); i++ {
		recv[i] = !rng.Flip(lose)
	}
}

// Rate implements Model.
func (b Bernoulli) Rate() float64 { return b.P }

// Channel is the model as the one-state loss process the exact evaluator
// (depgraph.ExactAuthProbDelivery) sweeps.
func (b Bernoulli) Channel() depgraph.Channel {
	return depgraph.Channel{Trans: [][]float64{{1}}, Loss: []float64{b.P}, Stationary: []float64{1}}
}

// Name implements Model.
func (b Bernoulli) Name() string { return fmt.Sprintf("bernoulli(p=%.3g)", b.P) }

// GilbertElliott is the classic 2-state Markov bursty-loss model: a Good
// state with loss PGood and a Bad state with loss PBad, with transition
// probabilities PGoodToBad and PBadToGood per packet. It realizes the
// "m-state Markov model" extension the paper names as future work (m=2).
type GilbertElliott struct {
	PGoodToBad float64
	PBadToGood float64
	PGood      float64 // loss probability while in Good
	PBad       float64 // loss probability while in Bad
}

var _ Model = GilbertElliott{}

// NewGilbertElliott validates the parameters.
func NewGilbertElliott(pGoodToBad, pBadToGood, pGood, pBad float64) (GilbertElliott, error) {
	for _, v := range []float64{pGoodToBad, pBadToGood, pGood, pBad} {
		if !(v >= 0 && v <= 1) {
			return GilbertElliott{}, fmt.Errorf("loss: parameter %v out of [0,1]", v)
		}
	}
	if pGoodToBad+pBadToGood == 0 {
		return GilbertElliott{}, fmt.Errorf("loss: degenerate chain (both transition probabilities zero)")
	}
	return GilbertElliott{
		PGoodToBad: pGoodToBad,
		PBadToGood: pBadToGood,
		PGood:      pGood,
		PBad:       pBad,
	}, nil
}

// NewBursty returns the Gilbert–Elliott chain with stationary loss rate p
// and mean burst length burst (in packets, at least 1): a lossless Good
// state, an always-lossy Bad state left with probability 1/burst, and
// entered at the rate that makes Bad's stationary share p. burst = 1 is
// not i.i.d. loss: Bad lasts exactly one packet, so no two packets in a
// row are lost (Spec maps burst <= 1 to Bernoulli instead).
func NewBursty(p, burst float64) (GilbertElliott, error) {
	if !(burst >= 1) {
		return GilbertElliott{}, fmt.Errorf("loss: mean burst length %v must be >= 1", burst)
	}
	pBadToGood := 1 / burst
	pGoodToBad := p * pBadToGood / (1 - p)
	return NewGilbertElliott(pGoodToBad, pBadToGood, 0, 1)
}

// stationaryBad returns the stationary probability of the Bad state.
func (g GilbertElliott) stationaryBad() float64 {
	return g.PGoodToBad / (g.PGoodToBad + g.PBadToGood)
}

// meanBurstLength returns the expected number of consecutive packets spent
// in the Bad state once entered: +Inf for a Bad state the chain never leaves.
func (g GilbertElliott) meanBurstLength() float64 {
	return 1 / g.PBadToGood
}

// SampleInto implements Model. The chain starts in its stationary
// distribution so that short blocks are unbiased.
func (g GilbertElliott) SampleInto(rng *stats.RNG, recv []bool) {
	loseGood, loseBad := stats.NewCoin(g.PGood), stats.NewCoin(g.PBad)
	toBad, toGood := stats.NewCoin(g.PGoodToBad), stats.NewCoin(g.PBadToGood)
	bad := rng.Bernoulli(g.stationaryBad())
	for i := 1; i < len(recv); i++ {
		if bad {
			recv[i] = !rng.Flip(loseBad)
			bad = !rng.Flip(toGood)
		} else {
			recv[i] = !rng.Flip(loseGood)
			bad = rng.Flip(toBad)
		}
	}
}

// SampleLanes is SampleInto for 64 chains at once, one per lane of lanes,
// each started stationary: the state word has bit t set while lane t is
// Bad, and each packet takes two bit-sliced flips — loss, then transition —
// with the state word choosing each lane's coin. Bits outside lanes are left
// alone. A coin at 0 or 1 (a lossless Good, a total-loss Bad) decides
// without drawing.
func (g GilbertElliott) SampleLanes(rng *stats.RNG, recv []uint64, lanes uint64) {
	loseGood, loseBad := stats.NewCoin(g.PGood), stats.NewCoin(g.PBad)
	toBad, toGood := stats.NewCoin(g.PGoodToBad), stats.NewCoin(g.PBadToGood)
	start := stats.NewCoin(g.stationaryBad())
	bad := rng.FlipLanes(start, start, 0)
	for i := 1; i < len(recv); i++ {
		recv[i] = recv[i]&^lanes | lanes&^rng.FlipLanes(loseGood, loseBad, bad)
		// A Good lane turns Bad on its toBad flip, a Bad lane Good on its
		// toGood flip: either way the state changes where the flip came up.
		bad ^= rng.FlipLanes(toBad, toGood, bad)
	}
}

// Channel is the model as a two-state loss process (Good, Bad), started
// stationary as SampleInto starts it.
func (g GilbertElliott) Channel() depgraph.Channel {
	bad := g.stationaryBad()
	return depgraph.Channel{
		Trans: [][]float64{
			{1 - g.PGoodToBad, g.PGoodToBad},
			{g.PBadToGood, 1 - g.PBadToGood},
		},
		Loss:       []float64{g.PGood, g.PBad},
		Stationary: []float64{1 - bad, bad},
	}
}

// Rate implements Model: the stationary loss probability.
func (g GilbertElliott) Rate() float64 {
	pb := g.stationaryBad()
	return (1-pb)*g.PGood + pb*g.PBad
}

// Name implements Model.
func (g GilbertElliott) Name() string {
	return fmt.Sprintf("gilbert(pi_bad=%.3g, burst=%.3g)", g.stationaryBad(), g.meanBurstLength())
}

// SingleBurst loses one contiguous run of packets per block: the run starts
// at a position drawn uniformly from 1..n and covers Length packets, cut
// short at the block's end. A run that starts fewer than Length packets
// before the end therefore loses only the suffix from its start, and with
// Length >= n every pattern is such a suffix. Length 0 loses nothing. It is
// the adversary the augmented chain construction targets.
type SingleBurst struct {
	Length int
}

var _ Model = SingleBurst{}

// NewSingleBurst validates the burst length.
func NewSingleBurst(length int) (SingleBurst, error) {
	if length < 0 {
		return SingleBurst{}, fmt.Errorf("loss: burst length %d must be >= 0", length)
	}
	return SingleBurst{Length: length}, nil
}

// SampleInto implements Model.
func (s SingleBurst) SampleInto(rng *stats.RNG, recv []bool) {
	n := len(recv) - 1
	for i := 1; i <= n; i++ {
		recv[i] = true
	}
	if s.Length == 0 || n <= 0 {
		return
	}
	start := rng.Intn(n) + 1
	for i := start; i < start+s.Length && i <= n; i++ {
		recv[i] = false
	}
}

// Rate implements Model: expected fraction lost for a large block is
// roughly Length/n; with no block size available we report 0 and callers
// needing a rate should use measured values.
func (s SingleBurst) Rate() float64 { return 0 }

// Name implements Model.
func (s SingleBurst) Name() string { return fmt.Sprintf("burst(len=%d)", s.Length) }

// Trace replays a recorded loss pattern; it cycles if the block is longer
// than the trace. Useful for regression tests with hand-crafted patterns.
type Trace struct {
	Lost []bool // Lost[k] == true means the k-th packet of the trace is lost
}

var _ Model = Trace{}

// NewTrace validates the trace.
func NewTrace(lost []bool) (Trace, error) {
	if len(lost) == 0 {
		return Trace{}, fmt.Errorf("loss: empty trace")
	}
	return Trace{Lost: append([]bool(nil), lost...)}, nil
}

// SampleInto implements Model.
func (t Trace) SampleInto(_ *stats.RNG, recv []bool) {
	for i := 1; i < len(recv); i++ {
		recv[i] = !t.Lost[(i-1)%len(t.Lost)]
	}
}

// Rate implements Model.
func (t Trace) Rate() float64 {
	lost := 0
	for _, l := range t.Lost {
		if l {
			lost++
		}
	}
	return float64(lost) / float64(len(t.Lost))
}

// Name implements Model.
func (t Trace) Name() string { return fmt.Sprintf("trace(len=%d)", len(t.Lost)) }
