package analysis

import "fmt"

// AugChain describes a Golle-Modadugu augmented chain C_{a,b} (the paper's
// Section 2.2 and Equation 10). In reversed indexing the signature packet
// is P_1 and is also the first first-level chain packet. Packets are
// labeled P(x,y): x indexes the chain segment and y in [0,B] the position
// within it, with linear index i = x*(B+1) + y + 1. y = 0 is a first-level
// chain packet; y in [1,B] are the second-phase inserted packets.
//
// Dependencies (Equation 10):
//
//	q(x,0): on q(x-1,0) and q(x-A,0); q(x,0)=1 for x <= A (the signature
//	        packet directly covers the first A chain packets).
//	q(x,y), y<B: on q(x,y+1) and q(x,0).
//	q(x,B):      on q(x+1,0) and q(x,0).
//
// Partial trailing segments degrade gracefully: a missing dependency simply
// drops out of the product.
type AugChain struct {
	N int
	A int
	B int
	P float64
}

// Validate checks the parameters.
func (c AugChain) Validate() error {
	if err := validateNP(c.N, c.P); err != nil {
		return err
	}
	if c.A < 1 {
		return fmt.Errorf("analysis: augmented chain a=%d must be >= 1", c.A)
	}
	if c.B < 1 {
		return fmt.Errorf("analysis: augmented chain b=%d must be >= 1", c.B)
	}
	if c.N < c.B+2 {
		return fmt.Errorf("analysis: augmented chain needs n >= b+2, got n=%d b=%d", c.N, c.B)
	}
	return nil
}

// Segments returns the number of chain segments (complete or partial).
func (c AugChain) Segments() int {
	return (c.N-1)/(c.B+1) + 1
}

// index maps grid coordinates to the reversed linear packet index.
func (c AugChain) index(x, y int) int {
	return x*(c.B+1) + y + 1
}

// exists reports whether grid position (x, y) falls inside the block.
func (c AugChain) exists(x, y int) bool {
	idx := c.index(x, y)
	return idx >= 1 && idx <= c.N
}

// Q evaluates the two-level recurrence.
func (c AugChain) Q() (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	res := newResult(c.N)
	segments := c.Segments()
	// Level 1: the chain packets q(x,0), solved first.
	chain := make([]float64, segments)
	for x := 0; x < segments; x++ {
		if !c.exists(x, 0) {
			// Cannot happen given Segments(), but keep the guard.
			break
		}
		if x <= c.A {
			chain[x] = 1
			continue
		}
		broken := 1 - (1-c.P)*chain[x-1]
		if c.A > 1 {
			// At a = 1 both links name P(x-1,0): one packet, one factor.
			broken *= 1 - (1-c.P)*chain[x-c.A]
		}
		chain[x] = 1 - broken
	}
	for x := 0; x < segments; x++ {
		if c.exists(x, 0) {
			res.Q[c.index(x, 0)] = chain[x]
		}
	}
	// Level 2: inserted packets, y descending so q(x,y+1) is available.
	for x := 0; x < segments; x++ {
		for y := c.B; y >= 1; y-- {
			if !c.exists(x, y) {
				continue
			}
			broken := 1.0
			if y == c.B {
				if x+1 < segments && c.exists(x+1, 0) {
					broken *= 1 - (1-c.P)*chain[x+1]
				}
			} else if c.exists(x, y+1) {
				broken *= 1 - (1-c.P)*res.Q[c.index(x, y+1)]
			}
			broken *= 1 - (1-c.P)*chain[x]
			res.Q[c.index(x, y)] = 1 - broken
		}
	}
	res.finalize()
	return res, nil
}

// QMin returns the minimum authentication probability.
func (c AugChain) QMin() (float64, error) {
	res, err := c.Q()
	if err != nil {
		return 0, err
	}
	return res.QMin, nil
}

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
