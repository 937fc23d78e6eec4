// Overlay conformance: the fourth evaluation path. netsim.RunOverlay
// delivers every packet through a multicast tree of relays before the
// receiver's last hop, so its agreement with the flat paths must be
// checked under two regimes with very different contracts:
//
// Tolerance table — what is compared, how tightly, and which layer is the
// source of truth when they disagree:
//
//	comparison                                  tolerance  rationale
//	--------------------------------------------------------------------
//	overlay (relays off, lossless edges)        0 (exact)  same seed, same per-receiver RNG
//	  vs flat netsim, per-receiver reports                 streams; the tree is pure plumbing,
//	                                                       so ANY difference is a defect in
//	                                                       the overlay delivery path
//	analytic vs dependence-graph Monte-Carlo    MCTol      binomial noise at MCTrials
//	analytic vs flat netsim q_min               NetsimTol  binomial noise at Receivers
//	analytic vs overlay q_min (i.i.d. leaf      NetsimTol  equals the flat row bit-for-bit
//	  loss, lossless edges, relays off)                    by the exact row above
//	analytic vs overlay under a correlated      none       the closed form assumes i.i.d.
//	  (shared-fate) tree edge                              per-receiver loss; a lossy shared
//	                                                       edge drops the SAME packets for an
//	                                                       entire subtree, violating the
//	                                                       assumption — here the Monte-Carlo
//	                                                       and netsim layers are the source
//	                                                       of truth, and the lab gates run on
//	                                                       them, not on the analytic bound
//
// The last row is the point of the overlay tier: once tree edges lose
// packets, q_min is no longer a function of the marginal loss rate alone,
// and TestCorrelatedEdgeEscapesAnalyticBound pins a scenario where the
// measured value sits far outside any tolerance of the i.i.d. formula
// evaluated at the same marginal rate.

package conformance

import (
	"fmt"
	"math"
	"reflect"

	"mcauth/internal/loss"
	"mcauth/internal/netsim"
	"mcauth/internal/schemetest"
)

// OverlayCellResult extends a flat Result with the overlay measurement.
type OverlayCellResult struct {
	Result
	// OverlayMeasured is q_min measured over the overlay delivery path.
	OverlayMeasured float64
	// Identical reports whether the overlay run's per-receiver reports were
	// bit-for-bit identical to the flat run's — required whenever the tree
	// edges are lossless and relays are off.
	Identical bool
}

// Check applies the tolerance table: the exact row first, then the flat
// statistical rows.
func (r OverlayCellResult) Check(p Params) error {
	if !r.Identical {
		return fmt.Errorf("%s at p=%.2f: overlay run (relays off, lossless edges) is not bit-identical to the flat run",
			r.Case, r.P)
	}
	if r.OverlayMeasured != r.Measured {
		return fmt.Errorf("%s at p=%.2f: overlay q_min %.6f != flat %.6f despite identical reports",
			r.Case, r.P, r.OverlayMeasured, r.Measured)
	}
	return r.Result.check(p)
}

// EvaluateOverlay runs one case at one i.i.d. loss rate through the
// analytic, Monte-Carlo, flat-netsim and overlay-netsim layers. The
// overlay uses a depth×fanout uniform tree with lossless edges, relays
// off, and the case's Bernoulli model on the last hop — the configuration
// the exact row of the tolerance table governs.
func EvaluateOverlay(c Case, p float64, depth, fanout int, params Params) (OverlayCellResult, error) {
	flat, flatRes, err := evaluate(c, loss.Spec{P: p}, params)
	r := OverlayCellResult{Result: flat}
	if err != nil {
		return r, err
	}
	cfg, err := netsimConfig(c, p, params)
	if err != nil {
		return r, err
	}
	tree, err := loss.NewUniformTree(params.Seed, depth, fanout, nil, cfg.Loss)
	if err != nil {
		return r, err
	}
	over, err := netsim.RunOverlay(c.Scheme, cfg, netsim.OverlayConfig{Tree: tree}, 1, schemetest.Payloads(c.Scheme.BlockSize()))
	if err != nil {
		return r, fmt.Errorf("%s: overlay netsim: %w", c.Name, err)
	}
	r.Identical = reflect.DeepEqual(over.PerReceiver, flatRes.PerReceiver)
	r.OverlayMeasured = over.MinAuthRatio(c.Data)
	return r, nil
}

// correlatedCell is one overlay run under a lossy shared tree edge,
// compared against the i.i.d. closed form evaluated at the same marginal
// per-receiver loss rate.
type correlatedCell struct {
	Case string
	// MarginalP is the per-receiver marginal loss rate (edge and leaf
	// composed), the rate an i.i.d. observer would measure.
	MarginalP float64
	// AnalyticIID is the closed form at MarginalP — the value the overlay
	// would have to match if loss were independent.
	AnalyticIID float64
	// Measured is the overlay q_min under the correlated edge.
	Measured float64
}

// escape is how far the measured value sits from the i.i.d. prediction.
func (c correlatedCell) escape() float64 { return math.Abs(c.AnalyticIID - c.Measured) }

// evaluateCorrelated runs one case over a depth-2 tree whose first
// mid-tree edge loses packets with probability edgeP (shared by the whole
// subtree) while every last hop loses i.i.d. at leafP. There is no
// tolerance for this cell — it exists to measure how far correlated loss
// escapes the analytic bound, and the simulation layer is authoritative.
func evaluateCorrelated(c Case, edgeP, leafP float64, fanout int, params Params) (correlatedCell, error) {
	marginal := 1 - (1-edgeP)*(1-leafP)
	cell := correlatedCell{Case: c.Name, MarginalP: marginal}
	analytic, _, err := c.QMin(loss.Spec{P: marginal}, Delay, 0)
	if err != nil {
		return cell, fmt.Errorf("%s: analytic: %w", c.Name, err)
	}
	cell.AnalyticIID = analytic
	cfg, err := netsimConfig(c, leafP, params)
	if err != nil {
		return cell, err
	}
	tree, err := loss.NewUniformTree(params.Seed, 2, fanout, nil, cfg.Loss)
	if err != nil {
		return cell, err
	}
	edgeModel, err := loss.NewBernoulli(edgeP)
	if err != nil {
		return cell, err
	}
	// Edge 1 is the first mid-tree relay: its whole subtree (1/fanout of
	// the receivers) shares one loss pattern.
	if err := tree.SetEdge(1, edgeModel); err != nil {
		return cell, err
	}
	over, err := netsim.RunOverlay(c.Scheme, cfg, netsim.OverlayConfig{Tree: tree}, 1, schemetest.Payloads(c.Scheme.BlockSize()))
	if err != nil {
		return cell, fmt.Errorf("%s: overlay netsim: %w", c.Name, err)
	}
	cell.Measured = over.MinAuthRatio(c.Data)
	return cell, nil
}
