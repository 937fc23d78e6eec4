package experiments

import (
	"io"

	"mcauth/internal/scheme/emss"
)

// tradeoffRow is one point in the overhead <-> robustness design space of
// Section 3.1: adding edges (hashes per packet) buys authentication
// probability.
type tradeoffRow struct {
	Scheme   string
	EdgesPkt float64
	QMin     float64
	// DelaySlots is the receiver-delay dimension of the tradeoff (the
	// maximum dependence span in packet slots).
	DelaySlots int
}

// tradeoffSeries sweeps the EMSS edge budget and spacing at p = 0.3,
// n = 1000, mapping the paper's three-way tradeoff between overhead,
// robustness and receiver delay.
func tradeoffSeries() ([]tradeoffRow, error) {
	var cfgs []emss.Config
	// Edge-budget axis: m at d = 1 (delay = block length for
	// signature-last schemes; the span shown is the hash spread).
	for m := 1; m <= 6; m++ {
		cfgs = append(cfgs, emss.Config{N: 1000, M: m, D: 1})
	}
	// Delay axis: spacing d at m = 2 — buffering grows with d while the
	// edge budget is constant.
	for _, d := range []int{1, 5, 20, 100, 300} {
		cfgs = append(cfgs, emss.Config{N: 1000, M: 2, D: d})
	}
	grid, err := recurrenceGrid(cfgs, []float64{0.3}, emss.Config.Graph)
	if err != nil {
		return nil, err
	}
	rows := make([]tradeoffRow, len(cfgs))
	for t, c := range cfgs {
		rows[t] = tradeoffRow{
			Scheme:     "emss(E_{" + itoa(c.M) + "," + itoa(c.D) + "})",
			EdgesPkt:   float64(c.M),
			QMin:       grid[t][0],
			DelaySlots: c.M * c.D, // hash spread m*d
		}
	}
	return rows, nil
}

func tradeoffExperiment() Experiment {
	e := Experiment{
		ID:    "tradeoff",
		Title: "Section 3.1 design tradeoff: overhead (edges/pkt) and buffering (hash spread) vs q_min",
		Expectation: "q_min rises steeply then saturates in the edge budget; " +
			"widening the spread at fixed budget costs buffering but barely moves q_min (under the paper's model)",
	}
	e.Run = func(w io.Writer) error {
		if err := banner(w, e); err != nil {
			return err
		}
		rows, err := tradeoffSeries()
		if err != nil {
			return err
		}
		t := newTable(w, "scheme", "edges/pkt", "hash spread (slots)", "q_min@p=0.3")
		for _, r := range rows {
			t.row(r.Scheme, f3(r.EdgesPkt), itoa(r.DelaySlots), f3(r.QMin))
		}
		return t.flush()
	}
	return e
}
