package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"mcauth/internal/catalog"
	"mcauth/internal/crypto"
	"mcauth/internal/delay"
	"mcauth/internal/depgraph"
	"mcauth/internal/fault"
	"mcauth/internal/netsim"
	"mcauth/internal/scenario"
)

// chaosMaxBuffered caps every verifier's pending buffer during the soak;
// the run fails if any receiver buffers past it.
const chaosMaxBuffered = 64

// runChaos is mcsim's -chaos mode: a seeded soak of every scheme under
// every fault preset, asserting the robustness invariants — zero forged
// packets authenticated, buffers bounded, genuine progress everywhere. It
// prints one row per run and exits non-zero if any invariant is violated.
func runChaos(o options) error {
	if o.chaosRate <= 0 || o.chaosRate > 0.5 {
		return fmt.Errorf("chaos rate %v out of (0,0.5]", o.chaosRate)
	}
	if o.chaosSeeds < 1 {
		return fmt.Errorf("chaos seeds %d must be >= 1", o.chaosSeeds)
	}
	delayModel, err := delay.NewGaussian(o.mu, o.sigma)
	if err != nil {
		return err
	}
	signer := crypto.NewSignerFromString("mcsim-sender")

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "scheme\tpreset\tseed\tinjected\tforged inj/rej\tauthed\trejected\tbuf hw\tverdict")
	violations := 0
	for _, name := range catalog.IDs() {
		spec := o.spec()
		spec.ID = name
		entry, err := catalog.Build(spec, signer)
		if err != nil {
			return fmt.Errorf("chaos %s: %w", name, err)
		}
		// The signature goes out three times, every copy lost like any
		// packet, faults included.
		run, err := scenario.New(entry, o.loss(), depgraph.Copies(2))
		if err != nil {
			return err
		}
		s := entry.Scheme
		block := payloads(s.BlockSize())
		for _, preset := range fault.PresetNames() {
			fc, err := fault.Preset(preset, o.chaosRate)
			if err != nil {
				return err
			}
			for seed := uint64(1); seed <= uint64(o.chaosSeeds); seed++ {
				cfg, err := run.Config(o.receivers, delayModel, seed)
				if err != nil {
					return err
				}
				cfg.Faults, cfg.MaxBuffered, cfg.Workers = &fc, chaosMaxBuffered, o.workers
				res, err := netsim.Run(s, cfg, 1, block)
				if err != nil {
					return fmt.Errorf("chaos %s/%s seed %d: %w", name, preset, seed, err)
				}
				ft := res.FaultTotals()
				authed := res.TotalAuthenticated()
				rejected := 0
				for _, rep := range res.PerReceiver {
					rejected += rep.Stats.Rejected
				}
				hw := res.MaxBufferHighWater()
				verdict := "ok"
				switch {
				case ft.ForgedAuthenticated > 0:
					verdict = fmt.Sprintf("FORGED AUTH x%d", ft.ForgedAuthenticated)
					violations++
				case hw > chaosMaxBuffered:
					verdict = fmt.Sprintf("BUFFER %d > %d", hw, chaosMaxBuffered)
					violations++
				case authed == 0:
					verdict = "NO PROGRESS"
					violations++
				}
				fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d/%d\t%d\t%d\t%d\t%s\n",
					name, preset, seed,
					ft.Corrupted+ft.Truncated+ft.Duplicated+ft.ForgedInjected,
					ft.ForgedInjected, ft.ForgedRejected,
					authed, rejected, hw, verdict)
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	runs := len(catalog.IDs()) * len(fault.PresetNames()) * o.chaosSeeds
	if violations > 0 {
		return fmt.Errorf("chaos soak: %d of %d runs violated invariants", violations, runs)
	}
	fmt.Printf("chaos soak: %d runs, all invariants held\n", runs)
	return nil
}
