// Package emss implements EMSS (Perrig et al.), the Efficient Multi-chained
// Stream Signature scheme of the paper's Section 2.2: the signature packet
// is the last packet of a block, and each packet's hash is stored in m
// later packets at spacing d (the paper's E_{m,d} notation). Redundant
// hash placement buys loss tolerance at the cost of delayed verification.
package emss

import (
	"fmt"

	"mcauth/internal/crypto"
	"mcauth/internal/depgraph"
	"mcauth/internal/scheme"
)

// Config selects the E_{m,d} parameters for a block of N packets.
type Config struct {
	N int
	M int
	D int
}

// Validate checks the parameters.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("emss: block size %d must be >= 2", c.N)
	}
	if c.M < 1 {
		return fmt.Errorf("emss: m=%d must be >= 1", c.M)
	}
	if c.D < 1 {
		return fmt.Errorf("emss: d=%d must be >= 1", c.D)
	}
	if c.M*c.D >= c.N {
		return fmt.Errorf("emss: m*d=%d must be < n=%d", c.M*c.D, c.N)
	}
	return nil
}

// New builds the E_{m,d} scheme. In send-order indexing the signature
// packet is P_n; packet s stores its hash in packets s+d, s+2d, ..., s+md
// (clamped to the block), which as dependence edges reads: s+kd -> s.
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

// topology is the E_{m,d} layout New signs and Graph evaluates.
func (c Config) topology() scheme.Topology {
	return scheme.Topology{
		Name:  fmt.Sprintf("emss(E_{%d,%d}, n=%d)", c.M, c.D, c.N),
		N:     c.N,
		Root:  c.N,
		Edges: edges(c),
	}
}

// edges lists the E_{m,d} dependence edges, target by target in send
// order. The signature packet absorbs dangling hashes (the paper's "hashes
// of the final few packets" ride in the signature packet), so a target's
// carriers stop at the first one that reaches the root: one edge from the
// root per target. No other pair of edges can coincide, since a target's
// unclamped carriers are distinct.
func edges(cfg Config) [][2]int {
	out := make([][2]int, 0, (cfg.N-1)*cfg.M)
	for s := 1; s < cfg.N; s++ {
		for k := 1; k <= cfg.M; k++ {
			carrier := min(s+k*cfg.D, cfg.N)
			out = append(out, [2]int{carrier, s})
			if carrier == cfg.N {
				break
			}
		}
	}
	return out
}

// reversedIndex maps a send-order index to the paper's reversed indexing
// (signature packet = 1), for comparison with the analytic recurrences.
func reversedIndex(sendIndex, n int) int { return n + 1 - sendIndex }
