package conformance

import (
	"testing"
)

// overlayCases picks the chained schemes for the overlay cells: the
// constructions whose q_min actually depends on the loss process, so the
// exact-parity and correlated-escape properties are non-trivial.
func overlayCases(t *testing.T) []Case {
	t.Helper()
	cases, err := suite(12)
	if err != nil {
		t.Fatal(err)
	}
	out := cases[:0]
	for _, c := range cases {
		if c.Name == "rohatgi" || c.Name == "emss(E21)" {
			out = append(out, c)
		}
	}
	if len(out) != 2 {
		t.Fatalf("suite is missing the chained overlay cases (got %d)", len(out))
	}
	return out
}

// TestOverlayConformanceCells is the overlay column of the conformance
// matrix: with lossless tree edges and relays off, the overlay run must
// be bit-identical to the flat run (zero tolerance), and therefore agree
// with the analytic and Monte-Carlo layers within the flat tolerances.
func TestOverlayConformanceCells(t *testing.T) {
	params := shortParams()
	for _, c := range overlayCases(t) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			for _, p := range lossRates {
				r, err := EvaluateOverlay(c, p, 2, 2, params)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Check(params); err != nil {
					t.Error(err)
				}
				t.Logf("p=%.2f analytic=%.4f mc=%.4f flat=%.4f overlay=%.4f identical=%v",
					p, r.Analytic, r.MonteCarlo, r.Measured, r.OverlayMeasured, r.Identical)
			}
		})
	}
}

// TestCorrelatedEdgeEscapesAnalyticBound pins the reason the overlay tier
// exists: under a lossy shared tree edge, the measured q_min escapes the
// i.i.d. closed form evaluated at the same marginal loss rate by far more
// than the statistical tolerance. The escape cuts both ways: an edge that
// kills signature wires starves its whole subtree of verification
// material at once (q_min collapses below any i.i.d. prediction — the
// netsim repair-gain scenario pins that case with a deterministic trace),
// while an edge that drops data and its hash carriers together makes
// receipt and verifiability positively correlated, inflating
// per-received-packet q_min far above the formula — the case this seeded
// Bernoulli edge happens to land in. Either way, no function of the
// marginal rate predicts the measurement; the simulation layers are the
// source of truth, and there is nothing to "fix" when they disagree with
// the formula.
func TestCorrelatedEdgeEscapesAnalyticBound(t *testing.T) {
	params := shortParams()
	for _, c := range overlayCases(t) {
		cell, err := evaluateCorrelated(c, 0.5, 0.1, 2, params)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: marginal p=%.3f analytic(iid)=%.4f measured=%.4f escape=%.4f",
			cell.Case, cell.MarginalP, cell.AnalyticIID, cell.Measured, cell.escape())
		if cell.escape() <= params.NetsimTol {
			t.Errorf("%s: escape %.4f within statistical tolerance %.4f — the scenario does not demonstrate the bound's failure",
				cell.Case, cell.escape(), params.NetsimTol)
		}
	}
}
