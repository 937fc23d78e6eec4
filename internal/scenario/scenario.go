// Package scenario is the one description of a simulated run: a
// catalogue entry, the loss on every receiver's last hop, and the
// signature packet's fate, together a depgraph.Delivery that the exact,
// Monte-Carlo and netsim evaluators all read. Every flat, chaos and
// overlay run of the tools, the lab, the conformance suite and the
// experiments is built here. It sits above internal/catalog because
// netsim's own tests use the catalogue, so the catalogue cannot import
// netsim.
package scenario

import (
	"mcauth/internal/catalog"
	"mcauth/internal/delay"
	"mcauth/internal/depgraph"
	"mcauth/internal/loss"
	"mcauth/internal/netsim"
	"mcauth/internal/stats"
)

// Run is e's block delivered under Delivery: Loss's channel on every
// packet, and Delivery.Root for the signature packet.
type Run struct {
	catalog.Entry
	Loss     loss.Spec
	Delivery depgraph.Delivery
}

// New describes e's block under loss l with the signature's fate root.
func New(e catalog.Entry, l loss.Spec, root depgraph.Root) (Run, error) {
	ch, err := l.Channel()
	return Run{Entry: e, Loss: l, Delivery: depgraph.Delivery{Channel: ch, Root: root}}, err
}

// MonteCarlo estimates q_i on the scheme's graph from trials of the run's
// loss patterns under its root rule.
func (r Run) MonteCarlo(trials int, rng *stats.RNG, opts depgraph.MCOptions) (depgraph.AuthResult, error) {
	g, err := r.Scheme.Graph()
	if err != nil {
		return depgraph.AuthResult{}, err
	}
	model, err := r.Loss.Model()
	if err != nil {
		return depgraph.AuthResult{}, err
	}
	opts.Root = r.Delivery.Root
	return g.MonteCarloAuthProbInto(loss.PatternInto(model), trials, rng, opts)
}

// Config is the simulated run by receivers receivers under delay d: the
// scheme's send schedule, its signature wires delivered by the run's root
// rule (netsim.Config.SetRoot). The caller adds what else the run needs
// (workers, telemetry, faults, late joiners).
func (r Run) Config(receivers int, d delay.Model, seed uint64) (netsim.Config, error) {
	model, err := r.Loss.Model()
	cfg := netsim.Config{
		Receivers:    receivers,
		Loss:         model,
		Delay:        d,
		SendInterval: r.SendInterval,
		Start:        r.Start,
		Seed:         seed,
	}
	if err == nil {
		err = cfg.SetRoot(r.Signature, r.Delivery.Root)
	}
	return cfg, err
}

// Config is New(e, l, depgraph.Forced).Config(receivers, d, seed): the
// paper's standing assumption that P_sign arrives.
func Config(e catalog.Entry, receivers int, l loss.Spec, d delay.Model, seed uint64) (netsim.Config, error) {
	r, err := New(e, l, depgraph.Forced)
	if err != nil {
		return netsim.Config{}, err
	}
	return r.Config(receivers, d, seed)
}
