package experiments

import (
	"io"
	"time"

	"mcauth/internal/catalog"
	"mcauth/internal/crypto"
	"mcauth/internal/delay"
	"mcauth/internal/loss"
	"mcauth/internal/netsim"
	"mcauth/internal/scheme/emss"
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
// crutch, sweeping signature-packet replication.
func sigLossSeries() ([]sigLossRow, error) {
	signer := crypto.NewSignerFromString("sigloss")
	const n = 12
	// The single-copy block is the reference: replicated signature packets
	// reuse its wire indices, and its exact q_min is what the assumption
	// promises.
	ref, err := catalog.Build(catalog.Spec{ID: "emss", N: n, M: 2, D: 1}, signer)
	if err != nil {
		return nil, err
	}
	var rows []sigLossRow
	for _, p := range []float64{0.1, 0.3} {
		assumed, _, err := ref.QMin(p, 0, 0)
		if err != nil {
			return nil, err
		}
		model, err := loss.NewBernoulli(p)
		if err != nil {
			return nil, err
		}
		for _, copies := range []int{1, 2, 3} {
			s, err := emss.New(emss.Config{N: n, M: 2, D: 1, SigCopies: copies}, signer)
			if err != nil {
				return nil, err
			}
			res, err := netsim.Run(s, netsim.Config{
				Receivers:    2000,
				Loss:         model,
				Delay:        delay.Constant{D: time.Millisecond},
				SendInterval: 10 * time.Millisecond,
				Start:        time.Unix(0, 0),
				Seed:         uint64(copies)*100 + uint64(p*10),
				Tracer:       Tracer,
				Metrics:      Metrics,
			}, 1, schemePayloads(n))
			if err != nil {
				return nil, err
			}
			rows = append(rows, sigLossRow{
				P:        p,
				Copies:   copies,
				Measured: res.MinAuthRatio(ref.Data),
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
