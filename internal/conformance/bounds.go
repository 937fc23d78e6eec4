package conformance

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Bound is one declarative acceptance bound on a measured (case, loss
// rate) cell. It generalizes the suite's hard-coded tolerances into data:
// the conformance tests, the lab regression gates (`mclab check`) and any
// committed baseline file all evaluate cells through the same type, so a
// bound tightened in one place tightens everywhere.
//
// Zero-valued tolerance fields inherit the Params defaults at check time;
// MinQMin defaults to 0 (no floor).
type Bound struct {
	// Case selects the cell by case name; "*" (or "") matches any case.
	Case string `json:"case"`
	// P selects the cell by loss rate; negative matches any rate.
	P float64 `json:"p"`
	// MCTol bounds |analytic - MonteCarlo| when both are present.
	MCTol float64 `json:"mc_tol,omitempty"`
	// NetsimTol bounds |analytic - measured| when both are present.
	NetsimTol float64 `json:"netsim_tol,omitempty"`
	// MinQMin is an absolute floor on the measured q_min — the regression
	// gate for "this scheme at this loss must keep authenticating at
	// least this fraction of received packets".
	MinQMin float64 `json:"min_qmin,omitempty"`
}

// pMatchTol absorbs float formatting round-trips when matching bounds to
// cells by loss rate (0.1 written as 0.10000000000000001 still matches).
const pMatchTol = 1e-9

// matches reports whether the bound applies to the named cell at rate p.
func (b Bound) matches(caseName string, p float64) bool {
	if b.Case != "*" && b.Case != "" && b.Case != caseName {
		return false
	}
	return b.P < 0 || math.Abs(b.P-p) <= pMatchTol
}

// check evaluates the bound against one result. A layer that did not run
// reads NaN (TESLA has no analytic value off i.i.d. loss), which fails no
// comparison, so the tolerances it enters and the MinQMin floor on a
// missing measurement pass vacuously.
func (b Bound) check(r Result, params Params) error {
	mcTol, netsimTol := cmp.Or(b.MCTol, params.MCTol), cmp.Or(b.NetsimTol, params.NetsimTol)
	if d := math.Abs(r.Analytic - r.MonteCarlo); d > mcTol {
		return fmt.Errorf("%s at p=%.2f: analytic q_min %.4f vs Monte-Carlo %.4f (Δ=%.4f > %.4f)",
			r.Case, r.P, r.Analytic, r.MonteCarlo, d, mcTol)
	}
	if d := math.Abs(r.Analytic - r.Measured); d > netsimTol {
		return fmt.Errorf("%s at p=%.2f: analytic q_min %.4f vs netsim-measured %.4f (Δ=%.4f > %.4f)",
			r.Case, r.P, r.Analytic, r.Measured, d, netsimTol)
	}
	if r.Measured < b.MinQMin {
		return fmt.Errorf("%s at p=%.2f: measured q_min %.4f below baseline floor %.4f",
			r.Case, r.P, r.Measured, b.MinQMin)
	}
	return nil
}

// Table is an ordered set of bounds. Every matching bound applies, so a
// wildcard tolerance row composes with per-case floors.
type Table []Bound

// matching returns every bound applying to the named cell at rate p.
func (t Table) matching(caseName string, p float64) []Bound {
	var out []Bound
	for _, b := range t {
		if b.matches(caseName, p) {
			out = append(out, b)
		}
	}
	return out
}

// Check evaluates every matching bound and returns the violations in
// table order. Cells no bound matches pass vacuously.
func (t Table) Check(r Result, params Params) []error {
	var errs []error
	for _, b := range t.matching(r.Case, r.P) {
		if err := b.check(r, params); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// readTable decodes a JSON bound table (the committed-baselines format of
// `mclab check`).
func readTable(r io.Reader) (Table, error) {
	var t Table
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("conformance: bound table: %w", err)
	}
	for i, b := range t {
		if b.MCTol < 0 || b.NetsimTol < 0 || b.MinQMin < 0 || b.MinQMin > 1 {
			return nil, fmt.Errorf("conformance: bound table entry %d out of range: %+v", i, b)
		}
	}
	return t, nil
}

// writeTable encodes the table as indented JSON, sorted by (case, p) so
// regenerated baseline files diff cleanly.
func (t Table) writeTable(w io.Writer) error {
	sorted := make(Table, len(t))
	copy(sorted, t)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Case != sorted[j].Case {
			return sorted[i].Case < sorted[j].Case
		}
		return sorted[i].P < sorted[j].P
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sorted)
}

// DefaultTable returns the suite's canonical cross-layer tolerances as a
// reusable table: one wildcard row inheriting the Params tolerances. Gates
// layer committed per-case floors on top of it.
func DefaultTable() Table {
	return Table{{Case: "*", P: -1}}
}
