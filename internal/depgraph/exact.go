package depgraph

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Channel is a stationary finite-state loss process in send order: the
// hidden state of packet 1 is drawn from Stationary, packet i is lost with
// probability Loss[s_i], and s_{i+1} is drawn from row Trans[s_i]. One state
// is the paper's i.i.d. model, two are Gilbert-Elliott, m are the "m-state
// Markov model" its Section 6 leaves as future work; the models of
// internal/loss hand one out from their Channel method.
type Channel struct {
	Trans      [][]float64
	Loss       []float64
	Stationary []float64
}

// ErrFrontier reports a graph ExactAuthProbDelivery cannot sweep: the root is
// in mid-block, or more than maxFrontierBits facts are live at once. Callers
// with another evaluator to fall back on test for it with errors.Is.
var ErrFrontier = errors.New("depgraph: no exact evaluation")

// maxFrontierBits caps the state space at 2^20 masks per channel state.
const maxFrontierBits = 20

// check rejects anything but a stationary row-stochastic chain (NaN fails
// every comparison below, so it is rejected too).
func (c Channel) check() error {
	m := len(c.Loss)
	if m == 0 || len(c.Trans) != m || len(c.Stationary) != m {
		return fmt.Errorf("depgraph: channel with %d loss, %d transition and %d stationary entries",
			m, len(c.Trans), len(c.Stationary))
	}
	unit := func(x float64) bool { return x >= 0 && x <= 1 }
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9 }
	flow := make([]float64, m) // Stationary · Trans
	total := 0.0
	for i, row := range c.Trans {
		if len(row) != m || !unit(c.Loss[i]) || !unit(c.Stationary[i]) {
			return fmt.Errorf("depgraph: channel state %d: %d transitions, loss %v, stationary %v",
				i, len(row), c.Loss[i], c.Stationary[i])
		}
		sum := 0.0
		for j, t := range row {
			if !unit(t) {
				return fmt.Errorf("depgraph: channel transition[%d][%d] = %v out of [0,1]", i, j, t)
			}
			sum += t
			flow[j] += c.Stationary[i] * t
		}
		if !near(sum, 1) {
			return fmt.Errorf("depgraph: channel transition row %d sums to %v, want 1", i, sum)
		}
		total += c.Stationary[i]
	}
	for j := range flow {
		if !near(total, 1) || !near(flow[j], c.Stationary[j]) {
			return fmt.Errorf("depgraph: channel distribution %v is not the chain's stationary one", c.Stationary)
		}
	}
	return nil
}

// pos is v's position in the sweep, counted outward from the root in send
// order, and at its inverse; both need the root first or last.
func (g *Graph) pos(v int) int { return max(v-g.root, g.root-v) }

func (g *Graph) at(t int) int {
	if g.root == 1 {
		return 1 + t
	}
	return g.n - t
}

// frontier says where each vertex's two facts live in the state mask.
// verBit[v] is "v is verified", kept from pos(v) until the step of v's last
// out-neighbour, verEnd[v], the last to read it. waitBit[v] is "v arrived
// with no verified in-neighbour yet", kept until the last step at which an
// in-neighbour can still turn verified. A fact no later step reads has no
// bit (zero). expire[t] are the bits whose last reader is step t; facts that
// start at t may take them over.
type frontier struct {
	verBit, waitBit, expire []uint32
	verEnd                  []int
	width                   int
}

// plan gives every fact the lowest bit free over its lifetime, so the mask
// stays dense whatever the graph's span.
func (g *Graph) plan() (frontier, error) {
	f := frontier{
		verBit: make([]uint32, g.n+1), waitBit: make([]uint32, g.n+1),
		expire: make([]uint32, g.n+1), verEnd: make([]int, g.n+1),
	}
	if g.root != 1 && g.root != g.n {
		return f, fmt.Errorf("%w: root %d is neither first nor last of %d in send order", ErrFrontier, g.root, g.n)
	}
	topo, err := g.TopoFromRoot()
	if err != nil {
		return f, err
	}
	// waitEnd[v] is the last step that can turn v verified: that of its
	// latest in-neighbour, or later still if that one may itself be
	// waiting. Unreachable vertices are not in topo and verify nothing.
	waitEnd := make([]int, g.n+1)
	seen := make([]bool, g.n+1)
	for _, v := range topo {
		seen[v], waitEnd[v] = true, g.pos(v)
		for _, u := range g.in[v] {
			if seen[u] {
				waitEnd[v] = max(waitEnd[v], waitEnd[u])
			}
		}
	}
	var used uint32
	for t := 0; t < g.n; t++ {
		v := g.at(t)
		used &^= f.expire[t]
		for _, w := range g.out[v] {
			f.verEnd[v] = max(f.verEnd[v], g.pos(w))
		}
		for _, fact := range []struct {
			bit *uint32
			end int
		}{{&f.verBit[v], f.verEnd[v]}, {&f.waitBit[v], waitEnd[v]}} {
			if fact.end <= t {
				continue
			}
			slot := bits.TrailingZeros32(^used)
			if slot >= maxFrontierBits {
				return f, fmt.Errorf("%w: frontier wider than %d bits", ErrFrontier, maxFrontierBits)
			}
			*fact.bit = 1 << slot
			used |= *fact.bit
			f.expire[fact.end] |= *fact.bit
			f.width = max(f.width, slot+1)
		}
	}
	return f, nil
}

// ExactAuthProbDelivery computes q_i = Pr{P_i verifiable | P_i received}
// exactly under d: the loss process d.Channel, with the signature packet's
// fate set by d.Root in the sweep's start distribution. It needs the root
// first or last in send order and at most 20 facts live at once; otherwise
// it fails with ErrFrontier and no number.
//
// The sweep visits the vertices outward from the root: in send order when
// the root is first, in reversed send order against the time-reversed chain
// π_j·T_ji/π_i when it is last. It carries the joint law of the channel
// state and the mask of live facts. A packet that arrives next to a verified
// in-neighbour is verified; one that arrives before any of them waits, and
// turns verified — waking its own waiting out-neighbours in turn — when a
// later packet reaches it (the augmented chain's inserted packets hang off
// the *next* chain packet). O(n · 2^w · m²) for frontier width w and m
// channel states.
func (g *Graph) ExactAuthProbDelivery(d Delivery) (AuthResult, error) {
	ch := d.Channel
	if err := ch.check(); err != nil {
		return AuthResult{}, err
	}
	f, err := g.plan()
	if err != nil {
		return AuthResult{}, err
	}
	m := len(ch.Loss)
	trans := ch.Trans
	if g.root != 1 {
		trans = make([][]float64, m)
		for i, pi := range ch.Stationary {
			trans[i] = make([]float64, m)
			for j := range trans[i] {
				if pi > 0 { // a state the chain never visits is never read
					trans[i][j] = ch.Stationary[j] * ch.Trans[j][i] / pi
				}
			}
		}
	}

	arrived, lost, err := d.start(trans)
	if err != nil {
		return AuthResult{}, err
	}
	dist := make([]float64, m<<f.width)
	next := make([]float64, m<<f.width)
	copy(dist[int(f.verBit[g.root])*m:], arrived)
	for s, pr := range lost {
		dist[s] += pr // the root lost: no fact is set
	}

	num := make([]float64, g.n+1) // Pr{i received and verifiable}
	den := make([]float64, g.n+1) // Pr{i received}
	num[g.root], den[g.root] = 1, 1
	// wake turns verified every waiter reachable from v, itself just
	// verified at step t with probability mass, and returns the mask after
	// it. A waiting out-neighbour of a vertex that can still turn verified
	// waits at least as long as that vertex, so every bit read here is live.
	var stack []int
	wake := func(mask uint32, v, t int, mass float64) uint32 {
		for stack = append(stack[:0], v); len(stack) > 0; {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.out[u] {
				if g.pos(w) >= t || mask&f.waitBit[w] == 0 {
					continue
				}
				mask &^= f.waitBit[w]
				if f.verEnd[w] > t {
					mask |= f.verBit[w]
				}
				num[w] += mass
				stack = append(stack, w)
			}
		}
		return mask
	}
	in := make([]float64, m)
	for t := 1; t < g.n; t++ {
		v := g.at(t)
		var pred uint32
		for _, u := range g.in[v] {
			if g.pos(u) < t {
				pred |= f.verBit[u]
			}
		}
		keep := ^f.expire[t]
		clear(next)
		for mask := uint32(0); mask < 1<<f.width; mask++ {
			clear(in)
			total := 0.0
			for s, pr := range dist[int(mask)*m:][:m] {
				total += pr
				for s2, tr := range trans[s] {
					in[s2] += pr * tr
				}
			}
			if total == 0 {
				continue
			}
			lost := next[int(mask&keep)*m:]
			arrived := 0.0
			for s2, pr := range in {
				lost[s2] += pr * ch.Loss[s2]
				in[s2] = pr * (1 - ch.Loss[s2])
				arrived += in[s2]
			}
			den[v] += arrived
			// v's own bits go in after keep: they may reuse a bit that
			// expires at this step and that wake still has to read.
			target := mask&keep | f.waitBit[v]
			if mask&pred != 0 {
				num[v] += arrived
				target = wake(mask, v, t, arrived)&keep | f.verBit[v]
			}
			recv := next[int(target)*m:]
			for s2, pr := range in {
				recv[s2] += pr
			}
		}
		dist, next = next, dist
	}

	return exactResult(num, den), nil
}
