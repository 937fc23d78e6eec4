package analysis

import "fmt"

// Periodic describes a hash-chaining topology with a periodic structure
// (Equation 9): in reversed indexing (signature packet = P_1), packet P_i
// relies on the packets {P_{i-a} : a in Offsets}, every offset positive.
// An offset a < 1 would have P_i rely on a packet no nearer the signature
// than itself; together with the positive offsets that makes the
// dependences cyclic, and a packet cannot carry the hash of a packet that
// carries its own hash, so no hash chain builds such a topology.
type Periodic struct {
	N       int
	Offsets []int
	P       float64
}

// Validate checks the parameters.
func (c Periodic) Validate() error {
	if err := validateNP(c.N, c.P); err != nil {
		return err
	}
	if len(c.Offsets) == 0 {
		return fmt.Errorf("analysis: periodic topology needs at least one offset")
	}
	seen := make(map[int]bool, len(c.Offsets))
	for _, a := range c.Offsets {
		if a < 1 {
			return fmt.Errorf("analysis: offset %d < 1: a packet can only rely on packets nearer the signature, or the dependences are cyclic", a)
		}
		if a >= c.N {
			return fmt.Errorf("analysis: offset %d out of [1, n) for n=%d", a, c.N)
		}
		if seen[a] {
			return fmt.Errorf("analysis: duplicate offset %d", a)
		}
		seen[a] = true
	}
	return nil
}

// maxOffset returns the largest offset.
func (c Periodic) maxOffset() int {
	maxA := 0
	for _, a := range c.Offsets {
		maxA = max(maxA, a)
	}
	return maxA
}

// boundary returns the highest index covered by the initial condition
// q_i = 1. Following the paper's explicit E_{2,1} initial condition
// (q_1 = q_2 = q_3 = 1 with max offset 2), the signature packet directly
// carries the hashes of the first maxOffset packets after it, so indices up
// to maxOffset+1 have q = 1.
func (c Periodic) boundary() int {
	return min(c.maxOffset()+1, c.N)
}

// update computes the right-hand side of Equation (9) for index i given the
// current q vector: q_i = 1 - prod_{a in A} [1 - (1-p) q_{i-a}], skipping
// offsets that fall before P_1.
func (c Periodic) update(q []float64, i int) float64 {
	prod := 1.0
	found := false
	for _, a := range c.Offsets {
		j := i - a
		if j < 1 {
			continue
		}
		found = true
		prod *= 1 - (1-c.P)*q[j]
	}
	if !found {
		// No in-range dependency: the packet cannot be authenticated
		// through the periodic structure.
		return 0
	}
	return 1 - prod
}

// Q evaluates the recurrence in one forward pass and returns per-packet
// authentication probabilities.
func (c Periodic) Q() (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	res := newResult(c.N)
	boundary := c.boundary()
	for i := 1; i <= boundary; i++ {
		res.Q[i] = 1
	}
	for i := boundary + 1; i <= c.N; i++ {
		res.Q[i] = c.update(res.Q, i)
	}
	res.finalize()
	return res, nil
}
