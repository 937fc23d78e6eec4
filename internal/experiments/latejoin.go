package experiments

import (
	"io"
	"time"

	"mcauth/internal/catalog"
	"mcauth/internal/crypto"
	"mcauth/internal/delay"
	"mcauth/internal/loss"
	"mcauth/internal/netsim"
	"mcauth/internal/scenario"
)

// lateJoinRow reports how well a scheme serves receivers that join
// mid-block — the paper's long-lived sessions where "recipients join and
// leave frequently".
type lateJoinRow struct {
	Scheme string
	// VerifiedOfDelivered is the fraction of post-join delivered packets
	// late joiners managed to authenticate.
	VerifiedOfDelivered float64
}

// lateJoinSeries runs every receiver as a late joiner over a lossless
// network, isolating the synchronization effect.
func lateJoinSeries() ([]lateJoinRow, error) {
	signer := crypto.NewSignerFromString("latejoin")
	const n = 32
	schemes := []struct{ id, name string }{
		{"rohatgi", "rohatgi (sig first)"},
		{"emss", "emss (sig last)"},
		{"authtree", "authtree (per-packet)"},
		{"signeach", "signeach (per-packet)"},
	}
	rows := make([]lateJoinRow, 0, len(schemes))
	for _, sc := range schemes {
		e, err := catalog.Build(catalog.Spec{ID: sc.id, N: n, M: 2, D: 1, Interval: 10 * time.Millisecond}, signer)
		if err != nil {
			return nil, err
		}
		cfg, err := scenario.Config(e, 200, loss.Spec{}, delay.Constant{D: time.Millisecond}, 31)
		if err != nil {
			return nil, err
		}
		cfg.LateJoiners, cfg.Tracer, cfg.Metrics = 200, Tracer, Metrics
		res, err := netsim.Run(e.Scheme, cfg, 1, schemePayloads(n))
		if err != nil {
			return nil, err
		}
		var delivered, verified int
		for _, rep := range res.PerReceiver {
			delivered += rep.Delivered
			verified += rep.Stats.Authenticated
		}
		ratio := 0.0
		if delivered > 0 {
			ratio = float64(verified) / float64(delivered)
		}
		rows = append(rows, lateJoinRow{Scheme: sc.name, VerifiedOfDelivered: ratio})
	}
	return rows, nil
}

func lateJoinExperiment() Experiment {
	e := Experiment{
		ID:    "latejoin",
		Title: "Extension: mid-block joiners (paper's join/leave churn), lossless network",
		Expectation: "per-packet schemes serve joiners immediately; signature-last chains sync at block end; " +
			"a signature-first chain leaves joiners unable to verify anything until the next block",
	}
	e.Run = func(w io.Writer) error {
		if err := banner(w, e); err != nil {
			return err
		}
		rows, err := lateJoinSeries()
		if err != nil {
			return err
		}
		t := newTable(w, "scheme", "verified / delivered (late joiners)")
		for _, r := range rows {
			t.row(r.Scheme, f3(r.VerifiedOfDelivered))
		}
		return t.flush()
	}
	return e
}
