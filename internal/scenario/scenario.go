// Package scenario is the one description of a simulated run: a
// catalogue entry, the loss on every receiver's last hop, the delay, the
// receiver count and the seed. Every flat, chaos and overlay run of the
// tools, the lab, the conformance suite and the experiments is built here.
// It sits above internal/catalog because netsim's own tests use the
// catalogue, so the catalogue cannot import netsim.
package scenario

import (
	"mcauth/internal/catalog"
	"mcauth/internal/delay"
	"mcauth/internal/loss"
	"mcauth/internal/netsim"
)

// Config is the simulated run of e's scheme by receivers receivers under
// loss l and delay d: the scheme's send schedule, with its signature wires
// delivered reliably — the paper's standing assumption that P_sign
// arrives. The caller adds what else the run needs (workers, telemetry,
// faults, late joiners).
func Config(e catalog.Entry, receivers int, l loss.Spec, d delay.Model, seed uint64) (netsim.Config, error) {
	model, err := l.Model()
	return netsim.Config{
		Receivers:       receivers,
		Loss:            model,
		Delay:           d,
		SendInterval:    e.SendInterval,
		Start:           e.Start,
		Seed:            seed,
		ReliableIndices: e.Signature,
	}, err
}
