package depgraph

import "fmt"

// SizeSpec carries the primitive sizes entering the overhead formula
// (Equation 3): d = (l_sign + l_hash * |E|) / n bytes per packet on
// average.
type SizeSpec struct {
	HashSize int // l_hash, bytes
	SigSize  int // l_sign, bytes
}

// DefaultSizes returns the sizes of the concrete primitives used by the
// runnable schemes in this repository (SHA-256, Ed25519).
func DefaultSizes() SizeSpec {
	return SizeSpec{HashSize: 32, SigSize: 64}
}

// paperEraSizes returns sizes typical of the paper's 2003 setting
// (16-byte MD5-style hashes, 128-byte RSA-1024 signatures), useful for
// reproducing Figure 10's absolute overhead numbers.
func paperEraSizes() SizeSpec {
	return SizeSpec{HashSize: 16, SigSize: 128}
}

func (s SizeSpec) validate() error {
	if s.HashSize <= 0 || s.SigSize <= 0 {
		return fmt.Errorf("depgraph: sizes must be positive, got hash=%d sig=%d", s.HashSize, s.SigSize)
	}
	return nil
}

// AvgHashesPerPacket returns m = |E| / n (Equation 2): the average number
// of hashes each packet carries, since the hashes carried by P_i equal its
// out-degree.
func (g *Graph) AvgHashesPerPacket() float64 {
	return float64(g.m) / float64(g.n)
}

// OverheadBytesPerPacket returns d = (l_sign + l_hash*|E|) / n
// (Equation 3): the average per-packet authentication overhead in bytes.
func (g *Graph) OverheadBytesPerPacket(spec SizeSpec) (float64, error) {
	if err := spec.validate(); err != nil {
		return 0, err
	}
	total := spec.SigSize + spec.HashSize*g.m
	return float64(total) / float64(g.n), nil
}

// MaxHashesPerPacket returns the largest out-degree: the worst-case number
// of hashes any single packet carries.
func (g *Graph) MaxHashesPerPacket() int {
	maxDeg := 0
	for i := 1; i <= g.n; i++ {
		if d := len(g.out[i]); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// HashBufferSize returns the number of hash slots a receiver must hold: the
// maximum positive "forward distance" j - i over edges (P_i, P_j) with
// i < j, i.e. how long a trusted hash received with P_i must be retained
// before P_j arrives. (With the paper's labels l_ij = i - j this is
// max(-l_ij, 0).)
func (g *Graph) HashBufferSize() int {
	maxSpan := 0
	for from := 1; from <= g.n; from++ {
		for _, to := range g.out[from] {
			if span := to - from; span > maxSpan {
				maxSpan = span
			}
		}
	}
	return maxSpan
}

// MessageBufferSize returns the number of packet slots a receiver must hold
// for messages awaiting later authentication information: the maximum
// positive label l_ij = i - j over edges (P_i, P_j) with i > j, matching
// the paper's max over edges of max(l_ij, 0).
func (g *Graph) MessageBufferSize() int {
	maxSpan := 0
	for from := 1; from <= g.n; from++ {
		for _, to := range g.out[from] {
			if span := from - to; span > maxSpan {
				maxSpan = span
			}
		}
	}
	return maxSpan
}

// DeterministicDelays returns, for each reachable packet, its worst-case
// deterministic receiver delay in packet-transmission slots, assuming
// in-order delivery at one packet per slot and no losses. A packet P_j is
// verifiable at the earliest time it has both arrived (slot j) and some
// in-edge provider P_i is itself verifiable and arrived; the delay is that
// time minus slot j. The root is verifiable on arrival (it carries the
// signature).
//
// This generalizes Equation (4): for signature-last schemes it yields
// (n - i) for packets that depend on the final signature packet, and 0 for
// zero-delay constructions where all edges point forward in send order.
//
// Unreachable vertices get delay -1.
func (g *Graph) DeterministicDelays() ([]int, error) {
	order, err := g.TopoFromRoot()
	if err != nil {
		return nil, err
	}
	const unreachable = -1
	// verifyAt[v] = earliest slot at which v is verifiable.
	verifyAt := make([]int, g.n+1)
	for i := range verifyAt {
		verifyAt[i] = unreachable
	}
	verifyAt[g.root] = g.root
	for _, v := range order {
		if v == g.root {
			continue
		}
		best := -1
		for _, u := range g.in[v] {
			if verifyAt[u] == unreachable {
				continue
			}
			// v needs u verifiable AND u's information present,
			// which happens at slot max(verifyAt[u], u); and v
			// itself must have arrived (slot v).
			t := verifyAt[u]
			if u > t {
				t = u
			}
			if v > t {
				t = v
			}
			if best == -1 || t < best {
				best = t
			}
		}
		verifyAt[v] = best
	}
	delays := make([]int, g.n+1)
	for v := 1; v <= g.n; v++ {
		if verifyAt[v] == unreachable {
			delays[v] = unreachable
			continue
		}
		delays[v] = verifyAt[v] - v
	}
	delays[0] = 0
	return delays, nil
}

// MaxDeterministicDelay returns the largest per-packet deterministic delay
// (the t_d(worst) of Equation 4) over reachable packets.
func (g *Graph) MaxDeterministicDelay() (int, error) {
	delays, err := g.DeterministicDelays()
	if err != nil {
		return 0, err
	}
	maxDelay := 0
	for v := 1; v <= g.n; v++ {
		if delays[v] > maxDelay {
			maxDelay = delays[v]
		}
	}
	return maxDelay, nil
}

// Metrics bundles the static (loss-independent) metrics of a graph for
// reporting.
type Metrics struct {
	N                int
	Edges            int
	AvgHashesPerPkt  float64
	MaxHashesPerPkt  int
	OverheadBytes    float64
	HashBufferPkts   int
	MsgBufferPkts    int
	MaxDelaySlots    int
	UnreachableCount int
}

// ComputeMetrics evaluates all static metrics in one pass.
func (g *Graph) ComputeMetrics(spec SizeSpec) (Metrics, error) {
	overhead, err := g.OverheadBytesPerPacket(spec)
	if err != nil {
		return Metrics{}, err
	}
	maxDelay, err := g.MaxDeterministicDelay()
	if err != nil {
		return Metrics{}, err
	}
	return Metrics{
		N:                g.n,
		Edges:            g.m,
		AvgHashesPerPkt:  g.AvgHashesPerPacket(),
		MaxHashesPerPkt:  g.MaxHashesPerPacket(),
		OverheadBytes:    overhead,
		HashBufferPkts:   g.HashBufferSize(),
		MsgBufferPkts:    g.MessageBufferSize(),
		MaxDelaySlots:    maxDelay,
		UnreachableCount: len(g.Unreachable()),
	}, nil
}
