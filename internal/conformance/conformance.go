// Package conformance cross-validates the three independent evaluation
// paths the repo provides for every authentication scheme:
//
//  1. the analytic evaluator the catalogue names for the scheme (exact,
//     the recurrence on its dependence graph, or a closed form),
//  2. Monte-Carlo estimation on the dependence graph (internal/depgraph),
//  3. end-to-end measurement over the simulated multicast network
//     (internal/netsim), running the real signer, verifier and wire
//     encoding.
//
// All three estimate the same quantity — the paper's q_min, the worst
// per-packet probability that a received packet is verifiable — so any
// disagreement beyond sampling noise indicates a defect in one of the
// layers: a wrong recurrence, a graph that does not match the wire
// format, or a verifier that accepts or rejects packets the graph says
// it should not.
package conformance

import (
	"errors"
	"fmt"
	"math"
	"time"

	"mcauth/internal/catalog"
	"mcauth/internal/crypto"
	"mcauth/internal/delay"
	"mcauth/internal/depgraph"
	"mcauth/internal/loss"
	"mcauth/internal/netsim"
	"mcauth/internal/obs"
	"mcauth/internal/scenario"
	"mcauth/internal/scheme/augchain"
	"mcauth/internal/schemetest"
	"mcauth/internal/stats"
)

// Case is one catalogue entry under test — the scheme, its analytic
// reference and the wire conventions the network measurement needs — under
// the name reports and baselines key on.
type Case struct {
	Name string
	catalog.Entry
}

// Delay is the constant delivery delay of every measurement, in this suite
// and in the lab's cells. Against the 100 ms TESLA interval Build sets it
// never violates the safety condition, so measured loss is purely erasure
// loss and must match Q evaluated at ξ = 1 (and the split-vertex graph,
// which excludes timing by construction).
const Delay = time.Millisecond

// Build builds a catalogue entry with the conventions every cross-layer
// measurement shares. The augmented chain's block is aligned up to a
// segment boundary (augchain.AlignN), so that it is the paper's C_{a,b}
// with no dangling run of inserted packets; the entry then runs at a
// slightly larger block than spec.N. TESLA runs at a 100 ms interval (see
// Delay).
func Build(spec catalog.Spec, signer crypto.Signer) (catalog.Entry, error) {
	switch spec.ID {
	case "augchain":
		spec.N = augchain.AlignN(spec.N, spec.B)
	case "tesla":
		spec.Interval = 100 * time.Millisecond
	}
	return catalog.Build(spec, signer)
}

// Params tunes the statistical effort of one evaluation.
type Params struct {
	// MCTrials is the Monte-Carlo trial count per loss rate.
	MCTrials int
	// Receivers is the simulated multicast group size.
	Receivers int
	// MCTol bounds |analytic - MonteCarlo|.
	MCTol float64
	// NetsimTol bounds |analytic - measured|; looser than MCTol because
	// the group size is the binomial sample size.
	NetsimTol float64
	// Seed derives every RNG in the evaluation.
	Seed uint64
}

// DefaultParams sizes the evaluation so binomial noise sits well inside
// the tolerances: ±3σ ≈ 0.009 for the Monte-Carlo estimate at 30k trials
// and ≈ 0.039 for 1500 receivers at q = 0.5.
func DefaultParams() Params {
	return Params{
		MCTrials:  30000,
		Receivers: 1500,
		MCTol:     0.02,
		NetsimTol: 0.05,
		Seed:      7,
	}
}

// shortParams trades precision for runtime (tests under -short).
func shortParams() Params {
	return Params{
		MCTrials:  8000,
		Receivers: 500,
		MCTol:     0.035,
		NetsimTol: 0.08,
		Seed:      7,
	}
}

// Result is one (case, loss) evaluation across the three layers. A layer
// that did not run, or has no value for the loss (TESLA's closed form off
// i.i.d. loss), reads NaN.
type Result struct {
	Case       string
	P          float64
	Analytic   float64
	MonteCarlo float64
	Measured   float64
}

// check returns an error if either disagreement exceeds its tolerance.
func (r Result) check(p Params) error { return Bound{}.check(r, p) }

// suite builds the canonical conformance cases at block size n, one per
// catalogue scheme and through Build: E_{2,1}, C_{3,3}, TESLA at lag 2.
func suite(n int) ([]Case, error) {
	if n < 6 {
		return nil, fmt.Errorf("conformance: block size %d too small for the suite", n)
	}
	signer := crypto.NewSignerFromString("conformance")
	var cases []Case
	for _, id := range catalog.IDs() {
		spec := catalog.Spec{
			ID: id, N: n, M: 2, D: 1, A: 3, B: 3, Lag: 2,
			Interval: 10 * time.Millisecond, Seed: []byte("conformance"),
		}
		name := id
		switch id {
		case "emss":
			name = "emss(E21)"
		case "augchain":
			name = "augchain(C33)"
		}
		e, err := Build(spec, signer)
		if err != nil {
			return nil, err
		}
		cases = append(cases, Case{Name: name, Entry: e})
	}
	return cases, nil
}

// Effort is how hard the sampled layers work on one cell, and from which
// seeds. Zero trials or receivers skip that layer. Both run on one worker:
// callers spread cells, not layers, over the CPUs, and no result depends
// on it.
type Effort struct {
	Trials    int
	MCSeed    uint64
	Receivers int
	SimSeed   uint64
	// Tracer and Metrics, when non-nil, record the netsim run.
	Tracer  *obs.SpanSink
	Metrics *obs.Registry
}

// Evaluate runs case c under loss l through the catalogue's analytic q_min
// and the sampled layers e asks for, all from one delivery with the
// signature packet forced: Monte-Carlo on the dependence graph and the
// netsim measurement, whose run it returns too (nil when skipped).
func Evaluate(c Case, l loss.Spec, e Effort) (Result, *netsim.Result, error) {
	nan := math.NaN()
	r := Result{Case: c.Name, P: l.P, Analytic: nan, MonteCarlo: nan, Measured: nan}
	run, err := scenario.New(c.Entry, l, depgraph.Forced)
	if err != nil {
		return r, nil, fmt.Errorf("%s: %w", c.Name, err)
	}
	q, _, err := c.QMin(l, Delay, 0)
	switch {
	case err == nil:
		r.Analytic = q
	case !errors.Is(err, catalog.ErrIIDOnly):
		return r, nil, fmt.Errorf("%s: analytic: %w", c.Name, err)
	}
	if e.Trials > 0 {
		mc, err := run.MonteCarlo(e.Trials, stats.NewRNG(e.MCSeed), depgraph.MCOptions{Workers: 1})
		if err != nil {
			return r, nil, fmt.Errorf("%s: monte-carlo: %w", c.Name, err)
		}
		r.MonteCarlo = mc.QMin
	}
	if e.Receivers <= 0 {
		return r, nil, nil
	}
	cfg, err := run.Config(e.Receivers, delay.Constant{D: Delay}, e.SimSeed)
	if err != nil {
		return r, nil, fmt.Errorf("%s: netsim: %w", c.Name, err)
	}
	cfg.Workers, cfg.Tracer, cfg.Metrics = 1, e.Tracer, e.Metrics
	res, err := netsim.Run(c.Scheme, cfg, 1, schemetest.Payloads(c.Scheme.BlockSize()))
	if err != nil {
		return r, nil, fmt.Errorf("%s: netsim: %w", c.Name, err)
	}
	r.Measured = res.MinAuthRatio(c.Data)
	return r, res, nil
}

// evaluate runs one case under loss l through all three layers at the
// suite's effort, seeded by the loss rate.
func evaluate(c Case, l loss.Spec, params Params) (Result, *netsim.Result, error) {
	key := uint64(1000 * l.P)
	return Evaluate(c, l, Effort{
		Trials: params.MCTrials, MCSeed: params.Seed ^ key,
		Receivers: params.Receivers, SimSeed: params.Seed + key,
	})
}

// netsimConfig is the flat measurement's netsim configuration at i.i.d.
// loss rate p, which the overlay measurements share.
func netsimConfig(c Case, p float64, params Params) (netsim.Config, error) {
	return scenario.Config(c.Entry, params.Receivers, loss.Spec{P: p}, delay.Constant{D: Delay}, params.Seed+uint64(1000*p))
}
