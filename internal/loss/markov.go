package loss

import (
	"fmt"

	"mcauth/internal/depgraph"
	"mcauth/internal/stats"
)

// MarkovChain is the paper's "m-state Markov model" future-work extension
// in full generality: an m-state chain where state s drops packets with
// probability LossProb[s] and transitions per packet according to the row-
// stochastic matrix Transitions. GilbertElliott is the m = 2 special case.
type MarkovChain struct {
	// Transitions[i][j] is the per-packet probability of moving from
	// state i to state j. Rows must sum to 1.
	Transitions [][]float64
	// LossProb[i] is the packet loss probability while in state i.
	LossProb []float64

	stationary []float64
	lose       []stats.Coin // LossProb, prepared once for SampleInto
}

var _ Model = (*MarkovChain)(nil)

// NewMarkovChain validates the chain and precomputes its stationary
// distribution (by power iteration; the chain must be ergodic enough for
// it to converge, which any practical loss model is).
func NewMarkovChain(transitions [][]float64, lossProb []float64) (*MarkovChain, error) {
	m := len(transitions)
	if m == 0 {
		return nil, fmt.Errorf("loss: markov chain needs at least one state")
	}
	if len(lossProb) != m {
		return nil, fmt.Errorf("loss: %d loss probabilities for %d states", len(lossProb), m)
	}
	for i, row := range transitions {
		if len(row) != m {
			return nil, fmt.Errorf("loss: transition row %d has %d entries, want %d", i, len(row), m)
		}
		sum := 0.0
		for j, pij := range row {
			if !(pij >= 0 && pij <= 1) {
				return nil, fmt.Errorf("loss: transition[%d][%d] = %v out of [0,1]", i, j, pij)
			}
			sum += pij
		}
		if sum < 1-1e-9 || sum > 1+1e-9 {
			return nil, fmt.Errorf("loss: transition row %d sums to %v, want 1", i, sum)
		}
	}
	for i, p := range lossProb {
		if !(p >= 0 && p <= 1) {
			return nil, fmt.Errorf("loss: loss probability[%d] = %v out of [0,1]", i, p)
		}
	}
	mc := &MarkovChain{
		Transitions: deepCopy(transitions),
		LossProb:    append([]float64(nil), lossProb...),
	}
	mc.stationary = mc.computeStationary()
	mc.lose = make([]stats.Coin, m)
	for i, p := range lossProb {
		mc.lose[i] = stats.NewCoin(p)
	}
	return mc, nil
}

func deepCopy(rows [][]float64) [][]float64 {
	out := make([][]float64, len(rows))
	for i, row := range rows {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// computeStationary power-iterates the uniform distribution.
func (mc *MarkovChain) computeStationary() []float64 {
	m := len(mc.Transitions)
	pi := make([]float64, m)
	for i := range pi {
		pi[i] = 1 / float64(m)
	}
	next := make([]float64, m)
	for iter := 0; iter < 10000; iter++ {
		for j := range next {
			next[j] = 0
		}
		for i, pii := range pi {
			for j, pij := range mc.Transitions[i] {
				next[j] += pii * pij
			}
		}
		delta := 0.0
		for j := range next {
			d := next[j] - pi[j]
			if d < 0 {
				d = -d
			}
			if d > delta {
				delta = d
			}
		}
		pi, next = next, pi
		if delta < 1e-14 {
			break
		}
	}
	return pi
}

// Channel is the chain as the loss process the exact evaluator sweeps: a
// copy, so the caller may not reach the model's own tables through it.
func (mc *MarkovChain) Channel() depgraph.Channel {
	return depgraph.Channel{
		Trans:      deepCopy(mc.Transitions),
		Loss:       append([]float64(nil), mc.LossProb...),
		Stationary: append([]float64(nil), mc.stationary...),
	}
}

// SampleInto implements Model; the chain starts stationary.
func (mc *MarkovChain) SampleInto(rng *stats.RNG, recv []bool) {
	state := sampleIndex(rng, mc.stationary)
	for i := 1; i < len(recv); i++ {
		recv[i] = !rng.Flip(mc.lose[state])
		state = sampleIndex(rng, mc.Transitions[state])
	}
}

func sampleIndex(rng *stats.RNG, dist []float64) int {
	u := rng.Float64()
	acc := 0.0
	for i, p := range dist {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(dist) - 1
}

// Rate implements Model: the stationary loss rate.
func (mc *MarkovChain) Rate() float64 {
	rate := 0.0
	for i, pi := range mc.stationary {
		rate += pi * mc.LossProb[i]
	}
	return rate
}

// Name implements Model.
func (mc *MarkovChain) Name() string {
	return fmt.Sprintf("markov(m=%d, rate=%.3g)", len(mc.Transitions), mc.Rate())
}
