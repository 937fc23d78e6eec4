package analysis

import (
	"fmt"
	"math"

	"mcauth/internal/stats"
)

// TESLA describes the paper's TESLA analysis (Section 3.2, Equations 6-7):
// n packets sent over the lifetime of one key chain, i.i.d. loss with
// probability P, Gaussian end-to-end delay with mean Mu and standard
// deviation Sigma, and key-disclosure delay TDisc. All times share one unit
// (seconds).
//
// The two factors of q_i:
//
//	λ_i          = 1 - P^(n+1-i)  — some later packet discloses the key;
//	ξ_i|λ_i      = Pr{t_i <= TDisc} = Phi((TDisc-Mu)/Sigma) — the packet
//	               arrives before its key is disclosed (condition (2)).
//
// q_min = (1-P) * Phi((TDisc-Mu)/Sigma) (the last packet's λ is 1-P).
type TESLA struct {
	N     int
	P     float64
	TDisc float64
	Mu    float64
	Sigma float64
}

// Validate checks the parameters. Every check here and in the constructors
// below is spelled so that NaN fails it.
func (c TESLA) Validate() error {
	if err := validateNP(c.N, c.P); err != nil {
		return err
	}
	if !(c.TDisc >= 0) {
		return fmt.Errorf("analysis: TESLA disclosure delay %v must be >= 0", c.TDisc)
	}
	if !(c.Mu >= 0) {
		return fmt.Errorf("analysis: TESLA mean delay %v must be >= 0", c.Mu)
	}
	if !(c.Sigma >= 0) {
		return fmt.Errorf("analysis: TESLA delay sigma %v must be >= 0", c.Sigma)
	}
	return nil
}

// TESLAWithAlpha builds a TESLA config with Mu = alpha * TDisc, the
// parameterization of Figures 3-4.
func TESLAWithAlpha(n int, p, tDisc, alpha, sigma float64) (TESLA, error) {
	if !(alpha >= 0 && alpha <= 1) {
		return TESLA{}, fmt.Errorf("analysis: TESLA alpha %v out of [0,1]", alpha)
	}
	c := TESLA{N: n, P: p, TDisc: tDisc, Mu: alpha * tDisc, Sigma: sigma}
	if err := c.Validate(); err != nil {
		return TESLA{}, err
	}
	return c, nil
}

// Xi returns the timing factor Pr{t_i <= TDisc}.
func (c TESLA) Xi() float64 {
	return stats.NormalCDF(c.TDisc, c.Mu, c.Sigma)
}

// Q evaluates q_i = (1 - P^(n+1-i)) * Xi for every packet.
func (c TESLA) Q() (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	res := newResult(c.N)
	xi := c.Xi()
	for i := 1; i <= c.N; i++ {
		lambda := 1 - math.Pow(c.P, float64(c.N+1-i))
		res.Q[i] = lambda * xi
	}
	res.finalize()
	return res, nil
}

// QMin returns q_min = (1-P) * Xi directly from Equation (7).
func (c TESLA) QMin() (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	return (1 - c.P) * c.Xi(), nil
}

// QWithXi evaluates q_i with an externally supplied timing factor
// ξ = Pr{t_i <= T_disclose}, decoupling the loss part of the analysis from
// the delay distribution: pass the CDF of any delay model (Gaussian,
// empirical, heavy-tailed) evaluated at T_disclose. Mu/Sigma are ignored.
func (c TESLA) QWithXi(xi float64) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if !(xi >= 0 && xi <= 1) {
		return Result{}, fmt.Errorf("analysis: TESLA xi %v out of [0,1]", xi)
	}
	res := newResult(c.N)
	for i := 1; i <= c.N; i++ {
		lambda := 1 - math.Pow(c.P, float64(c.N+1-i))
		res.Q[i] = lambda * xi
	}
	res.finalize()
	return res, nil
}

// QMinWithXi is the Equation (7) minimum under an external timing factor.
func (c TESLA) QMinWithXi(xi float64) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if !(xi >= 0 && xi <= 1) {
		return 0, fmt.Errorf("analysis: TESLA xi %v out of [0,1]", xi)
	}
	return (1 - c.P) * xi, nil
}
