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
	"fmt"
	"math"
	"time"

	"mcauth/internal/catalog"
	"mcauth/internal/crypto"
	"mcauth/internal/delay"
	"mcauth/internal/depgraph"
	"mcauth/internal/loss"
	"mcauth/internal/netsim"
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

// Result is one (case, loss rate) evaluation across the three layers.
type Result struct {
	Case       string
	P          float64
	Analytic   float64
	MonteCarlo float64
	Measured   float64
}

// mcDelta is the analytic-vs-Monte-Carlo disagreement.
func (r Result) mcDelta() float64 { return math.Abs(r.Analytic - r.MonteCarlo) }

// netsimDelta is the analytic-vs-measured disagreement.
func (r Result) netsimDelta() float64 { return math.Abs(r.Analytic - r.Measured) }

// check returns an error if either disagreement exceeds its tolerance.
func (r Result) check(p Params) error {
	if d := r.mcDelta(); d > p.MCTol {
		return fmt.Errorf("%s at p=%.2f: analytic q_min %.4f vs Monte-Carlo %.4f (Δ=%.4f > %.4f)",
			r.Case, r.P, r.Analytic, r.MonteCarlo, d, p.MCTol)
	}
	if d := r.netsimDelta(); d > p.NetsimTol {
		return fmt.Errorf("%s at p=%.2f: analytic q_min %.4f vs netsim-measured %.4f (Δ=%.4f > %.4f)",
			r.Case, r.P, r.Analytic, r.Measured, d, p.NetsimTol)
	}
	return nil
}

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

// evaluate runs one case at one loss rate through all three layers.
func evaluate(c Case, p float64, params Params) (Result, error) {
	r := Result{Case: c.Name, P: p}

	analytic, _, err := c.QMin(p, Delay, 0)
	if err != nil {
		return r, fmt.Errorf("%s: analytic: %w", c.Name, err)
	}
	r.Analytic = analytic

	g, err := c.Scheme.Graph()
	if err != nil {
		return r, fmt.Errorf("%s: graph: %w", c.Name, err)
	}
	mc, err := g.MonteCarloAuthProbInto(
		depgraph.BernoulliPatternInto(p),
		params.MCTrials,
		stats.NewRNG(params.Seed^uint64(1000*p)),
		depgraph.MCOptions{},
	)
	if err != nil {
		return r, fmt.Errorf("%s: monte-carlo: %w", c.Name, err)
	}
	r.MonteCarlo = mc.QMin

	cfg, err := netsimConfig(c, p, params)
	if err != nil {
		return r, err
	}
	res, err := netsim.Run(c.Scheme, cfg, 1, schemetest.Payloads(c.Scheme.BlockSize()))
	if err != nil {
		return r, fmt.Errorf("%s: netsim: %w", c.Name, err)
	}
	r.Measured = res.MinAuthRatio(c.Data)
	return r, nil
}

// netsimConfig is the one netsim configuration a case runs under at
// i.i.d. loss rate p, shared by the flat and overlay measurements.
func netsimConfig(c Case, p float64, params Params) (netsim.Config, error) {
	return scenario.Config(c.Entry, params.Receivers, loss.Spec{P: p}, delay.Constant{D: Delay}, params.Seed+uint64(1000*p))
}
