// Package augchain implements the Golle-Modadugu augmented chain C_{a,b}
// (paper Section 2.2): a first-level chain of packets each linked to its
// successor and to the packet a positions ahead, with b second-phase
// packets inserted per segment, each linked to two packets. The topology
// matches the two-level recurrence of Equation (10); the signature packet
// is sent last.
package augchain

import (
	"fmt"

	"mcauth/internal/crypto"
	"mcauth/internal/depgraph"
	"mcauth/internal/scheme"
)

// Config selects the C_{a,b} parameters for a block of N packets.
type Config struct {
	N int
	A int
	B int
}

// Validate checks the parameters.
func (c Config) Validate() error {
	if c.A < 1 {
		return fmt.Errorf("augchain: a=%d must be >= 1", c.A)
	}
	if c.B < 1 {
		return fmt.Errorf("augchain: b=%d must be >= 1", c.B)
	}
	if c.N < c.B+2 {
		return fmt.Errorf("augchain: n=%d must be >= b+2=%d", c.N, c.B+2)
	}
	return nil
}

// Segments returns the number of (possibly partial) chain segments.
func (c Config) Segments() int { return (c.N-1)/(c.B+1) + 1 }

// NForLevel1Length returns the block size n that yields the given number of
// first-level chain packets, used by Figure 6 where the first-level length
// is held constant while b varies.
func NForLevel1Length(level1, b int) int {
	return (level1-1)*(b+1) + 1
}

// AlignN returns the smallest block size >= n that ends on a chain-packet
// boundary for the given b (n ≡ 1 mod b+1). Unaligned blocks leave the
// final (earliest-sent) segment's inserted packets with a single
// dependency, which artificially depresses q_min; real deployments cut
// blocks at chain boundaries.
func AlignN(n, b int) int {
	seg := b + 1
	if n < seg+1 {
		return seg + 1
	}
	if (n-1)%seg == 0 {
		return n
	}
	return ((n-1)/seg+1)*seg + 1
}

// reversedIndex maps grid coordinates to the reversed linear index
// (signature packet = 1).
func (c Config) reversedIndex(x, y int) int { return x*(c.B+1) + y + 1 }

func (c Config) exists(x, y int) bool {
	i := c.reversedIndex(x, y)
	return i >= 1 && i <= c.N
}

// New builds the C_{a,b} scheme.
func New(cfg Config, signer crypto.Signer) (*scheme.Chained, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return scheme.NewChained(cfg.topology(), signer)
}

// Graph builds the dependence graph of New's scheme without a signer, for
// evaluation alone.
func (c Config) Graph() (*depgraph.Graph, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c.topology().Graph()
}

// topology lays out the dependence edges of Equation (10), translated from
// reversed to send-order indexing (send = n+1-reversed).
func (c Config) topology() scheme.Topology {
	send := func(x, y int) int { return c.N + 1 - c.reversedIndex(x, y) }
	edges := make([][2]int, 0, 2*c.N)
	addEdge := func(fromX, fromY, toX, toY int) {
		edges = append(edges, [2]int{send(fromX, fromY), send(toX, toY)})
	}
	segments := c.Segments()
	// Level 1: chain packets.
	for x := 1; x < segments; x++ {
		if !c.exists(x, 0) {
			continue
		}
		addEdge(x-1, 0, x, 0)
		prev := x - c.A
		if prev < 0 {
			prev = 0 // the signature packet covers the first a chain packets
		}
		if prev != x-1 {
			addEdge(prev, 0, x, 0)
		}
	}
	// Level 2: inserted packets.
	for x := 0; x < segments; x++ {
		for y := 1; y <= c.B; y++ {
			if !c.exists(x, y) {
				continue
			}
			addEdge(x, 0, x, y)
			if y == c.B {
				if c.exists(x+1, 0) {
					addEdge(x+1, 0, x, y)
				}
			} else if c.exists(x, y+1) {
				addEdge(x, y+1, x, y)
			}
		}
	}
	return scheme.Topology{
		Name:  fmt.Sprintf("augchain(C_{%d,%d}, n=%d)", c.A, c.B, c.N),
		N:     c.N,
		Root:  c.N, // reversed index 1 is sent last
		Edges: edges,
	}
}
