package lab

import "fmt"

// cellObjective is one cell's evaluation against one sweep objective.
// Target and Actual share the objective's unit (a fraction for
// auth_fraction, nanoseconds for tta_p99).
type cellObjective struct {
	Name   string
	Target float64
	Actual float64
	Met    bool
}

// evaluateCell checks one cell against the objectives. An objective only
// produces a result when its target is set and the cell carries the
// quantity it bounds: auth_fraction needs the netsim measured q_min,
// tta_p99 needs latency samples (per-packet schemes record none, so they
// pass vacuously rather than gate on a missing histogram).
func (o *sloObjectives) evaluateCell(c CellResult) []cellObjective {
	if o == nil {
		return nil
	}
	var out []cellObjective
	if o.MinAuthFraction > 0 && c.HasMeasured {
		out = append(out, cellObjective{
			Name:   "auth_fraction",
			Target: o.MinAuthFraction,
			Actual: c.Measured,
			Met:    c.Measured >= o.MinAuthFraction,
		})
	}
	if o.TTAP99NS > 0 && c.TimeToAuthNS.Count > 0 {
		out = append(out, cellObjective{
			Name:   "tta_p99",
			Target: float64(o.TTAP99NS),
			Actual: c.TimeToAuthNS.P99,
			Met:    c.TimeToAuthNS.P99 <= float64(o.TTAP99NS),
		})
	}
	return out
}

// checkSLO evaluates every cell of a run against the run's own configured
// objectives and returns one error per missed objective, in cell order.
// Runs without an SLO block pass vacuously.
func checkSLO(run *RunResult) []error {
	var errs []error
	for _, c := range run.Cells {
		for _, ob := range run.Config.SLO.evaluateCell(c) {
			if ob.Met {
				continue
			}
			switch ob.Name {
			case "auth_fraction":
				errs = append(errs, fmt.Errorf("%s: slo auth_fraction %.4f below objective %.4f",
					c.ID, ob.Actual, ob.Target))
			case "tta_p99":
				errs = append(errs, fmt.Errorf("%s: slo tta_p99 %s exceeds objective %s",
					c.ID, fns(ob.Actual), fns(ob.Target)))
			default:
				errs = append(errs, fmt.Errorf("%s: slo %s missed (%.4f vs %.4f)",
					c.ID, ob.Name, ob.Actual, ob.Target))
			}
		}
	}
	return errs
}
