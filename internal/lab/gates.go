package lab

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"mcauth/internal/conformance"
)

// Baselines is the committed gate file `mclab check` evaluates a run
// against. Bounds reuse the conformance bound-table machinery, so the same
// tolerances that gate `go test` conformance cells gate lab sweeps.
type Baselines struct {
	// Bounds gate the sweep's q_min cells. Bound.Case matches the cell's
	// scheme id (rohatgi, emss, ...); Bound.P the loss rate.
	Bounds conformance.Table `json:"bounds"`
	// RequireServerResume gates the serving tier's session-resume path:
	// every cell that ran the server path with churn enabled must have
	// replayed catch-up packets to its late subscriber and verified every
	// published message. Cells without a churn server result pass
	// vacuously, so the gate composes with non-churn sweeps.
	RequireServerResume bool `json:"require_server_resume,omitempty"`
	// RequireOverlayGain gates the relay fan-out path: every repairable
	// overlay cell (a signature class to repair, a lossy tree edge to
	// lose it on) must show relays-on raising the downstream
	// authenticated fraction over relays-off by at least this much, with
	// at least one upstream repair actually served (a zero-repair
	// scenario is vacuous, not passing). Cells without a repairable
	// overlay result pass vacuously. This is the gate that encodes the
	// overlay tier's reason to exist: under correlated tree-edge loss the
	// analytic i.i.d. bound says nothing, so the sweep gates on the
	// measured simulation delta instead.
	RequireOverlayGain float64 `json:"require_overlay_gain,omitempty"`
}

// ReadBaselines loads a committed baselines file.
func ReadBaselines(path string) (Baselines, error) {
	f, err := os.Open(path)
	if err != nil {
		return Baselines{}, err
	}
	defer f.Close()
	var b Baselines
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return Baselines{}, fmt.Errorf("lab: baselines %s: %w", path, err)
	}
	if b.RequireOverlayGain < 0 || b.RequireOverlayGain > 1 {
		return Baselines{}, fmt.Errorf("lab: baselines %s: require_overlay_gain %g out of [0,1]", path, b.RequireOverlayGain)
	}
	for i, bd := range b.Bounds {
		if bd.MCTol < 0 || bd.NetsimTol < 0 || bd.MinQMin < 0 || bd.MinQMin > 1 {
			return Baselines{}, fmt.Errorf("lab: baselines %s: bound %d out of range: %+v", path, i, bd)
		}
	}
	return b, nil
}

// writeBaselines writes the gate file as indented JSON.
func (b Baselines) writeBaselines(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// cellParams scales the default cross-layer tolerances to the cell's
// sample sizes: a lab smoke sweep runs far fewer trials and receivers
// than the conformance suite, so its binomial noise floor is higher. Four
// standard deviations of the worst-case (p(1-p)=1/4) binomial proportion,
// floored at the conformance defaults. Explicit per-bound tolerances in
// the baselines file still override these (Bound.Check semantics).
func cellParams(trials, receivers int) conformance.Params {
	params := conformance.DefaultParams()
	if t := 4 * math.Sqrt(0.25/float64(trials)); t > params.MCTol {
		params.MCTol = t
	}
	if t := 4 * math.Sqrt(0.25/float64(receivers)); t > params.NetsimTol {
		params.NetsimTol = t
	}
	return params
}

// CheckRun evaluates every cell of the run against the bound table and
// returns all violations, in cell order.
func (b Baselines) CheckRun(run *RunResult) []error {
	var errs []error
	for _, c := range run.Cells {
		// A layer the cell did not run reads NaN, which no bound checks.
		layer := func(has bool, q float64) float64 {
			if has {
				return q
			}
			return math.NaN()
		}
		r := conformance.Result{
			Case:       c.SchemeID,
			P:          c.P,
			Analytic:   layer(c.HasAnalytic, c.Analytic),
			MonteCarlo: layer(c.HasMonteCarlo, c.MonteCarlo),
			Measured:   layer(c.HasMeasured, c.Measured),
		}
		errs = append(errs, b.Bounds.Check(r, cellParams(run.Config.Trials, c.Receivers))...)
		if b.RequireOverlayGain > 0 && c.Overlay != nil && c.Overlay.Repairable {
			if c.Overlay.UpstreamRepaired == 0 {
				errs = append(errs, fmt.Errorf("%s: overlay cell served no upstream repairs — the lossy-edge scenario is vacuous (the seeded edge never dropped a signature wire)", c.ID))
			}
			if c.Overlay.Gain < b.RequireOverlayGain {
				errs = append(errs, fmt.Errorf("%s: overlay repair gain %.4f below required floor %.4f (auth on=%.4f off=%.4f)",
					c.ID, c.Overlay.Gain, b.RequireOverlayGain, c.Overlay.AuthOn, c.Overlay.AuthOff))
			}
		}
		if b.RequireServerResume && c.Server != nil && c.Server.Churned {
			if c.Server.ResumeCatchup <= 0 {
				errs = append(errs, fmt.Errorf("%s: churn cell replayed no resume catch-up packets", c.ID))
			}
			if c.Server.Verified != c.Server.Published {
				errs = append(errs, fmt.Errorf("%s: churn cell verified %d of %d published messages after resume",
					c.ID, c.Server.Verified, c.Server.Published))
			}
		}
	}
	if b.RequireServerResume && run.Config.Server.Churn {
		churned := false
		for _, c := range run.Cells {
			if c.Server != nil && c.Server.Churned {
				churned = true
				break
			}
		}
		if !churned {
			errs = append(errs, fmt.Errorf("run %s: require_server_resume set and config asks for churn, but no cell produced a churn server result", run.RunID()))
		}
	}
	if b.RequireOverlayGain > 0 && run.Config.hasPath(pathOverlay) {
		repairable := false
		for _, c := range run.Cells {
			if c.Overlay != nil && c.Overlay.Repairable {
				repairable = true
				break
			}
		}
		if !repairable {
			errs = append(errs, fmt.Errorf("run %s: require_overlay_gain set and config asks for the overlay path, but no cell produced a repairable overlay result", run.RunID()))
		}
	}
	// SLO objectives ride in the run's own config rather than the
	// baselines file: the sweep declares its service level, the gate
	// enforces it.
	errs = append(errs, checkSLO(run)...)
	return errs
}

// defaultBaselines is the starting gate: conformance-default tolerances on
// every cell, no q_min floors.
func defaultBaselines() Baselines {
	return Baselines{Bounds: conformance.DefaultTable()}
}
