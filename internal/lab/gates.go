package lab

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"mcauth/internal/conformance"
)

// Baselines is the committed gate file `mclab check` evaluates a run and
// the bench history against. Bounds reuse the conformance bound-table
// machinery, so the same tolerances that gate `go test` conformance cells
// gate lab sweeps.
type Baselines struct {
	// Bounds gate the sweep's q_min cells. Bound.Case matches the cell's
	// scheme id (rohatgi, emss, ...); Bound.P the loss rate.
	Bounds conformance.Table `json:"bounds"`
	// BenchThreshold is the allowed fractional regression of the latest
	// bench snapshot vs the best strictly-older snapshot per benchmark
	// (0.10 = +10%). Zero disables the bench gate.
	BenchThreshold float64 `json:"bench_threshold,omitempty"`
	// BenchAllocCeilings are absolute allocs/op ceilings for named
	// benchmarks, checked against the latest clean snapshot. Unlike the
	// relative BenchThreshold they hold even when every snapshot in the
	// history regressed together, which is what keeps the zero-alloc
	// verify fast path honest. A key matches the benchmark name exactly
	// or with a -<procs> suffix (go test appends GOMAXPROCS when > 1).
	BenchAllocCeilings map[string]float64 `json:"bench_alloc_ceilings,omitempty"`
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
	if b.BenchThreshold < 0 {
		return Baselines{}, fmt.Errorf("lab: baselines %s: bench_threshold %g must be >= 0", path, b.BenchThreshold)
	}
	for name, ceil := range b.BenchAllocCeilings {
		if ceil < 0 {
			return Baselines{}, fmt.Errorf("lab: baselines %s: alloc ceiling for %s is negative", path, name)
		}
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
		r := conformance.Result{
			Case:       c.SchemeID,
			P:          c.P,
			Analytic:   c.Analytic,
			MonteCarlo: c.MonteCarlo,
			Measured:   c.Measured,
		}
		params := cellParams(run.Config.Trials, c.Receivers)
		errs = append(errs, b.Bounds.Check(r, params, c.HasAnalytic, c.HasMonteCarlo, c.HasMeasured)...)
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

// CheckBench gates the newest clean bench snapshot against the best
// strictly-older clean snapshot per benchmark: ns/op may not regress by
// more than the threshold fraction, and allocs/op by more than the
// threshold fraction plus an absolute slack of 2 allocations (so
// near-zero counts are not gated on integer jitter). Dirty-tree
// snapshots are dropped from the comparison entirely — as baseline and
// as candidate — so only commit-attributable numbers ever gate.
// Benchmarks with no older measurement pass vacuously; an empty or
// single-file clean history passes the relative gate, but absolute
// alloc ceilings still apply to the latest clean snapshot.
func (b Baselines) CheckBench(history []*BenchFile) []error {
	clean := history[:0:0]
	for _, bf := range history {
		if !bf.dirty() {
			clean = append(clean, bf)
		}
	}
	var errs []error
	if len(clean) > 0 {
		errs = append(errs, b.checkAllocCeilings(clean[len(clean)-1])...)
	}
	if b.BenchThreshold <= 0 || len(clean) < 2 {
		return errs
	}
	latest := clean[len(clean)-1]
	series := seriesByName(clean[:len(clean)-1])
	for _, bm := range latest.Benchmarks {
		points := series[bm.Name]
		if len(points) == 0 {
			continue
		}
		bestNs, bestAllocs := math.Inf(1), math.Inf(1)
		var bestNsFile string
		for _, pt := range points {
			if pt.Benchmark.NsPerOp != nil && *pt.Benchmark.NsPerOp < bestNs {
				bestNs = *pt.Benchmark.NsPerOp
				bestNsFile = pt.File.shortCommit()
			}
			if pt.Benchmark.AllocsPerOp != nil && *pt.Benchmark.AllocsPerOp < bestAllocs {
				bestAllocs = *pt.Benchmark.AllocsPerOp
			}
		}
		if bm.NsPerOp != nil && !math.IsInf(bestNs, 1) {
			if limit := bestNs * (1 + b.BenchThreshold); *bm.NsPerOp > limit {
				errs = append(errs, fmt.Errorf(
					"%s: %.1f ns/op regresses %.1f%% over best baseline %.1f ns/op (%s; threshold %.0f%%)",
					bm.Name, *bm.NsPerOp, 100*(*bm.NsPerOp/bestNs-1), bestNs, bestNsFile, 100*b.BenchThreshold))
			}
		}
		if bm.AllocsPerOp != nil && !math.IsInf(bestAllocs, 1) {
			if limit := bestAllocs*(1+b.BenchThreshold) + 2; *bm.AllocsPerOp > limit {
				errs = append(errs, fmt.Errorf(
					"%s: %.0f allocs/op regresses over best baseline %.0f allocs/op (threshold %.0f%% + 2)",
					bm.Name, *bm.AllocsPerOp, bestAllocs, 100*b.BenchThreshold))
			}
		}
	}
	return errs
}

// checkAllocCeilings applies the absolute allocs/op ceilings to one
// snapshot. Ceiling keys match the benchmark name exactly or with a
// trailing -<procs> tag; benchmarks absent from the snapshot pass
// vacuously (the ceiling gates regressions, not bench coverage).
func (b Baselines) checkAllocCeilings(latest *BenchFile) []error {
	if len(b.BenchAllocCeilings) == 0 {
		return nil
	}
	var errs []error
	for _, bm := range latest.Benchmarks {
		if bm.AllocsPerOp == nil {
			continue
		}
		name := bm.Name
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		ceil, ok := b.BenchAllocCeilings[name]
		if !ok {
			ceil, ok = b.BenchAllocCeilings[bm.Name]
		}
		if !ok {
			continue
		}
		if *bm.AllocsPerOp > ceil {
			errs = append(errs, fmt.Errorf(
				"%s: %.0f allocs/op exceeds absolute ceiling %.0f (%s)",
				bm.Name, *bm.AllocsPerOp, ceil, latest.shortCommit()))
		}
	}
	return errs
}

// defaultBaselines is the starting gate: conformance-default tolerances on
// every cell, no q_min floors, 10% bench threshold.
func defaultBaselines() Baselines {
	return Baselines{Bounds: conformance.DefaultTable(), BenchThreshold: 0.10}
}
