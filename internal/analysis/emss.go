package analysis

import (
	"fmt"
	"math"
)

// EMSS describes an E_{m,d} scheme: each packet relies on the M previous
// packets (in reversed indexing) at offsets D, 2D, ..., M*D, i.e. each of
// the M dependencies is separated by D-1 packets. E_{2,1} is the scheme of
// the paper's Figure 1 and Equation (8).
type EMSS struct {
	N int
	M int
	D int
	P float64
}

// Validate checks the parameters.
func (c EMSS) Validate() error {
	if err := validateNP(c.N, c.P); err != nil {
		return err
	}
	if c.M < 1 {
		return fmt.Errorf("analysis: EMSS m=%d must be >= 1", c.M)
	}
	if c.D < 1 {
		return fmt.Errorf("analysis: EMSS d=%d must be >= 1", c.D)
	}
	if c.M*c.D >= c.N {
		return fmt.Errorf("analysis: EMSS m*d=%d must be < n=%d", c.M*c.D, c.N)
	}
	return nil
}

// Offsets returns the dependence offsets {D, 2D, ..., M*D}.
func (c EMSS) Offsets() []int {
	offsets := make([]int, c.M)
	for k := 1; k <= c.M; k++ {
		offsets[k-1] = k * c.D
	}
	return offsets
}

// Q evaluates the EMSS recurrence (Equations 8-9).
func (c EMSS) Q() (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	periodic := Periodic{N: c.N, Offsets: c.Offsets(), P: c.P}
	return periodic.Q()
}

// QMin returns the minimum authentication probability.
func (c EMSS) QMin() (float64, error) {
	res, err := c.Q()
	if err != nil {
		return 0, err
	}
	return res.QMin, nil
}

// maxFixedPointIters and fixedPointTol bound FixedPoint's iteration; the
// map is a monotone contraction on [0,1] in practice, so convergence is
// fast.
const (
	maxFixedPointIters = 10000
	fixedPointTol      = 1e-12
)

// FixedPoint returns the large-n limit q* of the E_{m,1}-style recurrence,
// obtained by solving q = 1 - (1 - (1-p)q)^m numerically. For E_{2,1} it
// has the closed form q* = (1-2p)/(1-p)^2 (clamped to [0,1]), against which
// the numeric solution is tested.
func (c EMSS) FixedPoint() (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	g := func(q float64) float64 {
		return 1 - math.Pow(1-(1-c.P)*q, float64(c.M))
	}
	// The map is monotone increasing on [0,1]; iterate from 1 to reach
	// the greatest fixed point.
	q := 1.0
	for i := 0; i < maxFixedPointIters; i++ {
		next := g(q)
		if math.Abs(next-q) < fixedPointTol {
			return next, nil
		}
		q = next
	}
	return q, nil
}

// closedFormLowerBoundE21 is the paper's closed-form lower bound for
// E_{2,1}: q_min >= 1 - p/(1-p), clamped to [0,1]. It is only informative
// for p < 1/2.
func closedFormLowerBoundE21(p float64) float64 {
	if p >= 1 {
		return 0
	}
	bound := 1 - p/(1-p)
	if bound < 0 {
		return 0
	}
	return bound
}
