package depgraph

import (
	"fmt"

	"mcauth/internal/stats"
)

// Delivery is what a receiver gets of a block: every packet goes through
// Channel, and Root says what becomes of the signature packet. Each
// evaluator reads Root in one place: the exact sweep in start, the
// Monte-Carlo estimator (MCOptions.Root) in rootLanes, netsim in
// Config.SetRoot, and all three send Root's copies in the same slots
// (DESIGN.md, "Delivery").
type Delivery struct {
	Channel Channel
	Root    Root
}

// Root is the signature packet's fate. Forced, the zero value, delivers it
// whatever its slot drew; Conditioned counts only the patterns in which it
// arrives; Copies(k) sends it k+1 times back to back, every copy lost like
// any packet, the k copies before a root that is first in send order and
// after the block otherwise. Copies(0) is the root lost like any packet.
// Copies is the one way to replicate the signature packet: a scheme sends
// it once.
type Root int

const (
	Forced      Root = 0
	Conditioned Root = -1
)

// Copies is the rule that sends k extra copies of the root.
func Copies(k int) Root { return Root(k + 1) }

// Copies is the number of extra copies r sends.
func (r Root) Copies() int { return max(int(r)-1, 0) }

// start is the law of the channel state at the root's slot joint with the
// root's fate: arrived[s] where it arrives, lost[s] where it does not.
// trans is the sweep's transition matrix, which the copies go through
// first: they are outermost in the sweep.
func (d Delivery) start(trans [][]float64) (arrived, lost []float64, err error) {
	ch := d.Channel
	if d.Root < Conditioned {
		return nil, nil, fmt.Errorf("depgraph: root rule %d", d.Root)
	}
	lost = append([]float64(nil), ch.Stationary...)
	arrived = make([]float64, len(lost))
	if d.Root == Forced {
		return lost, arrived, nil
	}
	for c := 0; ; c++ {
		for s, pr := range lost {
			arrived[s] += pr * (1 - ch.Loss[s])
			lost[s] = pr * ch.Loss[s]
		}
		if c == d.Root.Copies() {
			break
		}
		arrived, lost = step(arrived, trans), step(lost, trans)
	}
	if d.Root != Conditioned {
		return arrived, lost, nil
	}
	total := 0.0
	for _, pr := range arrived {
		total += pr
	}
	if total == 0 {
		return nil, nil, fmt.Errorf("depgraph: channel never delivers the signature packet")
	}
	for s := range arrived {
		arrived[s] /= total
	}
	return arrived, make([]float64, len(lost)), nil
}

// step advances a state distribution by one packet.
func step(dist []float64, trans [][]float64) []float64 {
	out := make([]float64, len(dist))
	for s, pr := range dist {
		for s2, tr := range trans[s] {
			out[s2] += pr * tr
		}
	}
	return out
}

// rootLanes turns a sampler of the channel's patterns into one of root's:
// Forced marks the root received in every lane, Conditioned redraws every
// lane that lost it, and Copies draws the block with the copies beside the
// root and folds them into it.
func (g *Graph) rootLanes(root Root, sample ReceiveLanes) ReceiveLanes {
	switch root {
	case Forced:
		return func(rng *stats.RNG, recv []uint64, lanes uint64) {
			sample(rng, recv, lanes)
			recv[g.root] |= lanes
		}
	case Conditioned:
		return func(rng *stats.RNG, recv []uint64, lanes uint64) {
			for redo := lanes; redo != 0; redo = lanes &^ recv[g.root] {
				sample(rng, recv, redo)
			}
		}
	case Copies(0):
		return sample
	}
	k := root.Copies()
	shift, tail := 0, g.n // the block's and the copies' offsets in the wide draw
	if g.root == 1 {
		shift, tail = k, 0
	}
	return func(rng *stats.RNG, recv []uint64, lanes uint64) {
		wide := make([]uint64, len(recv)+k)
		sample(rng, wide, lanes)
		for i := 1; i < len(recv); i++ {
			recv[i] = recv[i]&^lanes | wide[i+shift]
		}
		for c := 1; c <= k; c++ {
			recv[g.root] |= wide[tail+c]
		}
	}
}
