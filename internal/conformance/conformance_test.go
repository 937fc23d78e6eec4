package conformance

import (
	"testing"

	"mcauth/internal/depgraph"
	"mcauth/internal/loss"
	"mcauth/internal/stats"
)

// lossRates spans light, moderate and heavy erasure loss — enough to
// exercise both the near-1 regime (where every layer should saturate)
// and the regime where chained schemes visibly diverge from sign-each.
var lossRates = []float64{0.05, 0.15, 0.30}

// TestAnalyticMonteCarloNetsimAgree is the conformance pass: for every
// scheme and loss rate, the analytic recurrence, the dependence-graph
// Monte-Carlo estimate, and the end-to-end measured verification ratio
// must agree on q_min within statistical tolerance.
func TestAnalyticMonteCarloNetsimAgree(t *testing.T) {
	params := DefaultParams()
	if testing.Short() {
		params = shortParams()
	}
	cases, err := suite(12)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 6 {
		t.Fatalf("suite has %d cases, want 6 (five schemes + sign-each)", len(cases))
	}
	for _, c := range cases {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			for _, p := range lossRates {
				r, _, err := evaluate(c, loss.Spec{P: p}, params)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.check(params); err != nil {
					t.Error(err)
				}
				t.Logf("p=%.2f analytic=%.4f mc=%.4f measured=%.4f",
					p, r.Analytic, r.MonteCarlo, r.Measured)
			}
		})
	}
}

// TestBurstyDeliveryAgrees is the conformance pass under bursty loss: one
// delivery — a Gilbert–Elliott channel of mean burst 5 with the signature
// packet forced — drives the exact evaluator, Monte-Carlo and netsim for
// every graph scheme, within the same tolerances as the i.i.d. rows.
// TESLA's closed form takes i.i.d. loss only, so it has no row here.
func TestBurstyDeliveryAgrees(t *testing.T) {
	params := DefaultParams()
	if testing.Short() {
		params = shortParams()
	}
	cases, err := suite(12)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if c.Name == "tesla" {
			continue
		}
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			for _, p := range lossRates {
				r, _, err := evaluate(c, loss.Spec{P: p, Burst: 5}, params)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.check(params); err != nil {
					t.Error(err)
				}
				t.Logf("burst=5 p=%.2f analytic=%.4f mc=%.4f measured=%.4f",
					p, r.Analytic, r.MonteCarlo, r.Measured)
			}
		})
	}
}

// TestBaselinesAreLossless pins the q = 1 property of the per-packet
// schemes: any received packet verifies, at every loss rate.
func TestBaselinesAreLossless(t *testing.T) {
	cases, err := suite(12)
	if err != nil {
		t.Fatal(err)
	}
	params := shortParams()
	for _, c := range cases {
		if c.Name != "authtree" && c.Name != "signeach" {
			continue
		}
		r, _, err := evaluate(c, loss.Spec{P: 0.30}, params)
		if err != nil {
			t.Fatal(err)
		}
		if r.MonteCarlo != 1 || r.Measured != 1 {
			t.Errorf("%s: mc=%v measured=%v, want exactly 1", c.Name, r.MonteCarlo, r.Measured)
		}
	}
}

// TestMonteCarloDeterministicAcrossWorkers guards the sharded estimator:
// the conformance numbers must not depend on the worker count.
func TestMonteCarloDeterministicAcrossWorkers(t *testing.T) {
	cases, err := suite(12)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		g, err := c.Scheme.Graph()
		if err != nil {
			t.Fatal(err)
		}
		var qmin [2]float64
		for i, workers := range []int{1, 4} {
			res, err := g.MonteCarloAuthProbInto(
				depgraph.BernoulliPatternInto(0.15), 5000, stats.NewRNG(42),
				depgraph.MCOptions{Workers: workers},
			)
			if err != nil {
				t.Fatal(err)
			}
			qmin[i] = res.QMin
		}
		if qmin[0] != qmin[1] {
			t.Errorf("%s: q_min %v with 1 worker vs %v with 4", c.Name, qmin[0], qmin[1])
		}
	}
}

// TestEvaluateValidation covers the error paths.
func TestEvaluateValidation(t *testing.T) {
	if _, err := suite(3); err == nil {
		t.Error("undersized suite accepted")
	}
	cases, err := suite(12)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := evaluate(cases[0], loss.Spec{P: 1.5}, shortParams()); err == nil {
		t.Error("impossible loss rate accepted")
	}
}
