package schemetest

import (
	"testing"
	"time"

	"mcauth/internal/delay"
	"mcauth/internal/depgraph"
	"mcauth/internal/fault"
	"mcauth/internal/loss"
	"mcauth/internal/netsim"
	"mcauth/internal/scheme"
)

// SweepParams wires a scheme into the simulated network for
// CorruptionSweep. The zero value works for clock-free schemes; TESLA
// needs Interval and Start matching its disclosure schedule.
type SweepParams struct {
	// Reliable lists the signature/bootstrap wire indices; the sweep sends
	// each three times, every copy lost like any packet
	// (depgraph.Copies(2)), not magically delivered.
	Reliable []uint32
	// Interval is the send spacing (default 10ms).
	Interval time.Duration
	// Start is the first packet's send time (default t=5000s).
	Start time.Time
}

// CorruptionSweep extends the in-process tampering sweep end-to-end: the
// scheme runs through netsim's lossy, reordering channel with corruption,
// truncation and wrong-key forgery faults injected, across several seeds.
// It asserts the two properties every scheme must keep under an active
// adversary: no forged payload ever authenticates, and the genuine stream
// still makes progress.
func CorruptionSweep(t *testing.T, s scheme.Scheme, params SweepParams) {
	t.Helper()
	if params.Interval <= 0 {
		params.Interval = 10 * time.Millisecond
	}
	if params.Start.IsZero() {
		params.Start = time.Unix(5000, 0)
	}
	lossModel, err := loss.NewBernoulli(0.05)
	if err != nil {
		t.Fatal(err)
	}
	corrupting := fault.Config{CorruptRate: 0.05, TruncateRate: 0.03}
	forging := fault.Config{ForgeRate: 0.08}
	cases := []struct {
		name string
		fc   fault.Config
	}{
		{"corruption", corrupting},
		{"forgery", forging},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(11); seed <= 13; seed++ {
				fc := tc.fc
				cfg := netsim.Config{
					Receivers:    6,
					Loss:         lossModel,
					Delay:        delay.Constant{D: 2 * time.Millisecond},
					SendInterval: params.Interval,
					Start:        params.Start,
					Seed:         seed,
					Faults:       &fc,
					MaxBuffered:  64,
				}
				if err := cfg.SetRoot(params.Reliable, depgraph.Copies(2)); err != nil {
					t.Fatal(err)
				}
				res, err := netsim.Run(s, cfg, 1, Payloads(s.BlockSize()))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				ft := res.FaultTotals()
				if ft.ForgedAuthenticated != 0 {
					t.Errorf("seed %d: %d forged payloads authenticated end-to-end",
						seed, ft.ForgedAuthenticated)
				}
				if res.TotalAuthenticated() == 0 {
					t.Errorf("seed %d: adversarial channel stopped the genuine stream", seed)
				}
			}
		})
	}
}
