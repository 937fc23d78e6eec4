package conformance

import (
	"math"
	"testing"

	"mcauth/internal/delay"
	"mcauth/internal/depgraph"
	"mcauth/internal/loss"
	"mcauth/internal/netsim"
	"mcauth/internal/obs"
	"mcauth/internal/scenario"
	"mcauth/internal/schemetest"
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

// TestCopiesPlacedAlike: Copies(k) is one wire in every evaluator. Under
// bursty loss where the copies sit changes what one burst takes, so every
// data index's netsim ratio must lie within 4σ of the exact q_i — for
// Rohatgi, whose copies go ahead of its first-sent root, and E_{2,1}, whose
// copies follow the block. TestBurstyDeliveryAgrees' 1 500 receivers cannot
// see a shift of a few hundredths; 40 000 resolve about 0.01.
func TestCopiesPlacedAlike(t *testing.T) {
	const receivers = 40000
	cases, err := suite(12)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if c.Name != "rohatgi" && c.Name != "emss(E21)" {
			continue
		}
		t.Run(c.Name, func(t *testing.T) {
			run, err := scenario.New(c.Entry, loss.Spec{P: 0.2, Burst: 4}, depgraph.Copies(2))
			if err != nil {
				t.Fatal(err)
			}
			g, err := c.Scheme.Graph()
			if err != nil {
				t.Fatal(err)
			}
			exact, err := g.ExactAuthProbDelivery(run.Delivery)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := run.Config(receivers, delay.Constant{D: Delay}, 7)
			if err != nil {
				t.Fatal(err)
			}
			res, err := netsim.Run(c.Scheme, cfg, 1, schemetest.Payloads(c.Scheme.BlockSize()))
			if err != nil {
				t.Fatal(err)
			}
			worst := 0.0
			for _, i := range c.Data {
				received, verified := res.Counts(i)
				q := exact.Q[i]
				z := (float64(verified)/float64(received) - q) / math.Sqrt(q*(1-q)/float64(received))
				if math.Abs(z) > 4 {
					t.Errorf("P_%d: netsim %d/%d against exact q = %.4f: z = %+.1f", i, verified, received, q, z)
				}
				if math.Abs(z) > math.Abs(worst) {
					worst = z
				}
			}
			t.Logf("worst z = %+.1f over %d data packets", worst, len(c.Data))
		})
	}
}

// TestCopiesWireOrder: with Copies(2) a root that is first in send order
// (Rohatgi's signature packet, TESLA's bootstrap) goes out three times
// before anything else, and the block keeps its schedule: the root's own
// slot is sent at Start.
func TestCopiesWireOrder(t *testing.T) {
	cases, err := suite(12)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		if c.Name != "rohatgi" && c.Name != "tesla" {
			continue
		}
		run, err := scenario.New(c.Entry, loss.Spec{P: 0.2}, depgraph.Copies(2))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := run.Config(1, delay.Constant{D: Delay}, 1)
		if err != nil {
			t.Fatal(err)
		}
		tracer := obs.NewSpanSink(obs.KeepAll, nil)
		cfg.Tracer = tracer
		if _, err := netsim.Run(c.Scheme, cfg, 1, schemetest.Payloads(c.Scheme.BlockSize())); err != nil {
			t.Fatal(err)
		}
		var sent []obs.Span
		for _, sp := range tracer.Snapshot() {
			if sp.Kind == obs.SpanSent {
				sent = append(sent, sp)
			}
		}
		if len(sent) != c.Scheme.WireCount()+2 {
			t.Fatalf("%s: %d wires sent, want %d", c.Name, len(sent), c.Scheme.WireCount()+2)
		}
		root := c.Signature[0]
		for w, sp := range sent[:4] {
			if isRoot := sp.Index == root; isRoot != (w < 3) {
				t.Errorf("%s: wire %d carries P_%d, root P_%d", c.Name, w+1, sp.Index, root)
			}
		}
		if at := sent[2].TimeNS; at != obs.TimeNS(c.Start) {
			t.Errorf("%s: the root's own slot is sent at %d ns, want Start %d ns", c.Name, at, obs.TimeNS(c.Start))
		}
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
