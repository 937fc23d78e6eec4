// Package delay provides end-to-end network delay models. The paper models
// Internet end-to-end delay as Gaussian N(mu, sigma^2) by a central-limit
// argument over many routers (Section 4.1); that model drives TESLA's
// condition (2) (a packet must arrive before its key is disclosed).
package delay

import (
	"fmt"
	"time"

	"mcauth/internal/stats"
)

// Model samples per-packet end-to-end delays and exposes the probability
// that a delay does not exceed a deadline (the Pr{t_i <= T_disclose} of the
// TESLA analysis).
type Model interface {
	// Sample draws one end-to-end delay.
	Sample(rng *stats.RNG) time.Duration
	// CDF returns Pr{delay <= d}.
	CDF(d time.Duration) float64
	// Name identifies the model in reports.
	Name() string
}

// Constant is a fixed-delay model (a perfect network with known latency).
type Constant struct {
	D time.Duration
}

var _ Model = Constant{}

// Sample implements Model.
func (c Constant) Sample(_ *stats.RNG) time.Duration { return c.D }

// CDF implements Model.
func (c Constant) CDF(d time.Duration) float64 {
	if d >= c.D {
		return 1
	}
	return 0
}

// Name implements Model.
func (c Constant) Name() string { return fmt.Sprintf("constant(%v)", c.D) }

// Gaussian is the paper's N(mu, sigma^2) end-to-end delay, truncated below
// at zero when sampling (a delay cannot be negative; the truncation is
// negligible for the mu >> sigma regimes of the figures).
type Gaussian struct {
	Mu    time.Duration
	Sigma time.Duration
}

var _ Model = Gaussian{}

// NewGaussian validates the parameters.
func NewGaussian(mu, sigma time.Duration) (Gaussian, error) {
	if mu < 0 {
		return Gaussian{}, fmt.Errorf("delay: negative mean %v", mu)
	}
	if sigma < 0 {
		return Gaussian{}, fmt.Errorf("delay: negative sigma %v", sigma)
	}
	return Gaussian{Mu: mu, Sigma: sigma}, nil
}

// Sample implements Model.
func (g Gaussian) Sample(rng *stats.RNG) time.Duration {
	d := rng.Normal(float64(g.Mu), float64(g.Sigma))
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// CDF implements Model (Equation 5).
func (g Gaussian) CDF(d time.Duration) float64 {
	return stats.NormalCDF(float64(d), float64(g.Mu), float64(g.Sigma))
}

// Name implements Model.
func (g Gaussian) Name() string { return fmt.Sprintf("gaussian(mu=%v, sigma=%v)", g.Mu, g.Sigma) }
