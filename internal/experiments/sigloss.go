package experiments

import (
	"io"
	"time"

	"mcauth/internal/catalog"
	"mcauth/internal/crypto"
	"mcauth/internal/delay"
	"mcauth/internal/depgraph"
	"mcauth/internal/loss"
	"mcauth/internal/netsim"
	"mcauth/internal/scenario"
)

// sigLossRow measures what the paper's "P_sign always arrives" assumption
// costs when the signature packet is NOT protected, and how quickly
// replication (the paper's own remedy) restores it.
type sigLossRow struct {
	P        float64
	Copies   int
	Measured float64 // min verification ratio over data packets, sig lossy
	Assumed  float64 // exact analytic q_min under the always-arrives assumption
}

// sigLossSeries runs EMSS E_{2,1} end-to-end without any reliable-delivery
// crutch, sweeping signature-packet replication: copies wires carry the
// signature, each lost like any packet (depgraph.Copies(copies-1)).
func sigLossSeries() ([]sigLossRow, error) {
	const n = 12
	e, err := catalog.Build(catalog.Spec{ID: "emss", N: n, M: 2, D: 1, Interval: 10 * time.Millisecond},
		crypto.NewSignerFromString("sigloss"))
	if err != nil {
		return nil, err
	}
	var rows []sigLossRow
	for _, p := range []float64{0.1, 0.3} {
		assumed, _, err := e.QMin(loss.Spec{P: p}, 0, 0)
		if err != nil {
			return nil, err
		}
		for _, copies := range []int{1, 2, 3} {
			run, err := scenario.New(e, loss.Spec{P: p}, depgraph.Copies(copies-1))
			if err != nil {
				return nil, err
			}
			cfg, err := run.Config(2000, delay.Constant{D: time.Millisecond}, uint64(copies)*100+uint64(p*10))
			if err != nil {
				return nil, err
			}
			cfg.Tracer, cfg.Metrics = Tracer, Metrics
			res, err := netsim.Run(e.Scheme, cfg, 1, schemePayloads(n))
			if err != nil {
				return nil, err
			}
			rows = append(rows, sigLossRow{
				P:        p,
				Copies:   copies,
				Measured: res.MinAuthRatio(e.Data),
				Assumed:  assumed,
			})
		}
	}
	return rows, nil
}

func schemePayloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte{byte(i)}
	}
	return out
}

func sigLossExperiment() Experiment {
	e := Experiment{
		ID:    "sigloss",
		Title: "Extension: cost of the 'P_sign always arrives' assumption, and replication as the paper's remedy",
		Expectation: "one signature copy loses ~p of all blocks outright; two or three copies " +
			"(residual loss p^2, p^3) recover the assumption's q_min",
	}
	e.Run = func(w io.Writer) error {
		if err := banner(w, e); err != nil {
			return err
		}
		rows, err := sigLossSeries()
		if err != nil {
			return err
		}
		t := newTable(w, "p", "sig copies", "measured q_min (sig lossy)", "q_min (assumed reliable)")
		for _, r := range rows {
			t.row(f3(r.P), itoa(r.Copies), f3(r.Measured), f3(r.Assumed))
		}
		return t.flush()
	}
	return e
}
