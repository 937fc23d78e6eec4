package conformance

import (
	"math"
	"strings"
	"testing"
)

func TestBoundMatching(t *testing.T) {
	b := Bound{Case: "emss(E21)", P: 0.1}
	if !b.matches("emss(E21)", 0.1) {
		t.Error("exact match failed")
	}
	if !b.matches("emss(E21)", 0.1+1e-12) {
		t.Error("float round-trip match failed")
	}
	if b.matches("emss(E21)", 0.2) || b.matches("rohatgi", 0.1) {
		t.Error("mismatched cell matched")
	}
	wild := Bound{Case: "*", P: -1}
	if !wild.matches("anything", 0.73) {
		t.Error("wildcard must match every cell")
	}
}

func TestBoundCheckTolerancesAndFloor(t *testing.T) {
	params := DefaultParams()
	r := Result{Case: "emss(E21)", P: 0.1, Analytic: 0.80, MonteCarlo: 0.79, Measured: 0.78}

	// Within default tolerances, no floor: passes.
	if err := (Bound{Case: "*", P: -1}).check(r, params); err != nil {
		t.Errorf("in-tolerance cell flagged: %v", err)
	}
	// Tight per-bound MC tolerance overrides the default.
	if err := (Bound{Case: "*", P: -1, MCTol: 0.001}).check(r, params); err == nil {
		t.Error("tight MC tolerance not enforced")
	}
	// Netsim tolerance violation.
	if err := (Bound{Case: "*", P: -1, NetsimTol: 0.01}).check(r, params); err == nil {
		t.Error("tight netsim tolerance not enforced")
	}
	// Floor above the measured value fails even with analytic layers off.
	measuredOnly := Result{Case: r.Case, P: r.P, Analytic: math.NaN(), MonteCarlo: math.NaN(), Measured: r.Measured}
	err := (Bound{Case: "*", P: -1, MinQMin: 0.9}).check(measuredOnly, params)
	if err == nil || !strings.Contains(err.Error(), "baseline floor") {
		t.Errorf("floor violation not reported: %v", err)
	}
	// Without a measured value the floor is vacuous.
	unmeasured := r
	unmeasured.Measured = math.NaN()
	if err := (Bound{Case: "*", P: -1, MinQMin: 0.9}).check(unmeasured, params); err != nil {
		t.Errorf("floor applied without measurement: %v", err)
	}
	// Missing analytic layer disables the delta checks.
	bad := Result{Case: "x", P: 0.5, Analytic: math.NaN(), MonteCarlo: 0.2, Measured: 0.2}
	if err := (Bound{Case: "*", P: -1, MCTol: 0.001, NetsimTol: 0.001}).check(bad, params); err != nil {
		t.Errorf("delta checks ran without analytic reference: %v", err)
	}
}

func TestTableReadWriteRoundTrip(t *testing.T) {
	in := Table{
		{Case: "rohatgi", P: 0.25, MinQMin: 0.5},
		{Case: "*", P: -1},
		{Case: "emss(E21)", P: 0.1, MCTol: 0.05, NetsimTol: 0.1, MinQMin: 0.6},
	}
	var buf strings.Builder
	if err := in.writeTable(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := readTable(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-trip length %d, want %d", len(out), len(in))
	}
	// writeTable sorts by (case, p): "*" < "emss(E21)" < "rohatgi".
	if out[0].Case != "*" || out[1].Case != "emss(E21)" || out[2].Case != "rohatgi" {
		t.Errorf("table not sorted: %+v", out)
	}
	if out[1].MCTol != 0.05 || out[2].MinQMin != 0.5 {
		t.Errorf("values lost in round-trip: %+v", out)
	}

	if _, err := readTable(strings.NewReader(`[{"case":"x","p":0.1,"min_qmin":2}]`)); err == nil {
		t.Error("out-of-range min_qmin accepted")
	}
	if _, err := readTable(strings.NewReader(`[{"case":"x","p":0.1,"unknown_knob":1}]`)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestTableCheckCollectsAllViolations(t *testing.T) {
	params := DefaultParams()
	table := Table{
		{Case: "*", P: -1, MinQMin: 0.95},
		{Case: "emss(E21)", P: 0.1, NetsimTol: 0.001},
	}
	r := Result{Case: "emss(E21)", P: 0.1, Analytic: 0.9, MonteCarlo: 0.9, Measured: 0.8}
	errs := table.Check(r, params)
	if len(errs) != 2 {
		t.Fatalf("got %d violations, want 2: %v", len(errs), errs)
	}
	if none := table.Check(Result{Case: "other", P: 0.5, Analytic: math.NaN(), MonteCarlo: math.NaN(), Measured: 0.99}, params); len(none) != 0 {
		t.Errorf("non-matching floor case flagged: %v", none)
	}
}
