package lab

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func sloRun(slo *sloObjectives) *RunResult {
	return &RunResult{
		Name:  "slo",
		Stamp: "20260808-000000",
		Config: Config{
			Name: "slo", Trials: 100,
			Schemes: []schemeConfig{{ID: "emss"}},
			Loss:    []lossConfig{{Model: "bernoulli", P: 0.2}},
			SLO:     slo,
		},
		Cells: []CellResult{
			{
				ID: "emss/bernoulli(p=0.2)/n=16/r=8", SchemeID: "emss",
				HasMeasured: true, Measured: 0.95,
				TimeToAuthNS: qSummary{Count: 100, P99: 40e6},
			},
			{
				ID: "emss/bernoulli(p=0.4)/n=16/r=8", SchemeID: "emss",
				HasMeasured: true, Measured: 0.60,
				TimeToAuthNS: qSummary{Count: 100, P99: 250e6},
			},
			// Per-packet schemes record no latency; analytic-only cells
			// carry no measured q_min. Neither quantity gates.
			{ID: "signeach/bernoulli(p=0.2)/n=16/r=8", SchemeID: "signeach"},
		},
	}
}

func TestSLOObjectivesGate(t *testing.T) {
	run := sloRun(&sloObjectives{MinAuthFraction: 0.9, TTAP99NS: 100e6})
	errs := checkSLO(run)
	if len(errs) != 2 {
		t.Fatalf("want 2 missed objectives (cell 2 auth_fraction + tta_p99), got %d: %v", len(errs), errs)
	}
	for _, err := range errs {
		if !strings.Contains(err.Error(), "p=0.4") {
			t.Errorf("violation should name the failing cell: %v", err)
		}
	}
	// The run-level gate reports the same misses.
	gateErrs := defaultBaselines().CheckRun(run)
	if len(gateErrs) < 2 {
		t.Errorf("CheckRun should enforce the config's SLO block, got %v", gateErrs)
	}
}

func TestSLOObjectivesVacuous(t *testing.T) {
	// No SLO block: nothing gates.
	if errs := checkSLO(sloRun(nil)); len(errs) != 0 {
		t.Fatalf("nil SLO must pass vacuously, got %v", errs)
	}
	// Objectives set but met exactly at the boundary.
	run := sloRun(&sloObjectives{MinAuthFraction: 0.60, TTAP99NS: 250e6})
	if errs := checkSLO(run); len(errs) != 0 {
		t.Fatalf("boundary values meet the objective, got %v", errs)
	}
	// A cell without the gated quantity never fails the objective.
	only := sloRun(&sloObjectives{MinAuthFraction: 0.9, TTAP99NS: 1})
	only.Cells = only.Cells[2:]
	if errs := checkSLO(only); len(errs) != 0 {
		t.Fatalf("cells without measured/latency data must pass vacuously, got %v", errs)
	}
}

func TestSLOConfigNormalize(t *testing.T) {
	base := Config{
		Name:    "x",
		Schemes: []schemeConfig{{ID: "emss"}},
		Loss:    []lossConfig{{Model: "bernoulli", P: 0.2}},
	}
	for _, tc := range []struct {
		name string
		slo  *sloObjectives
		ok   bool
	}{
		{"nil", nil, true},
		{"auth only", &sloObjectives{MinAuthFraction: 0.9}, true},
		{"tta only", &sloObjectives{TTAP99NS: 1e6}, true},
		{"empty block", &sloObjectives{}, false},
		{"fraction above 1", &sloObjectives{MinAuthFraction: 1.5}, false},
		{"negative tta", &sloObjectives{TTAP99NS: -1}, false},
	} {
		c := base
		c.SLO = tc.slo
		err := c.normalize()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: Normalize accepted an invalid SLO block", tc.name)
		}
	}

	// Configs without an SLO block must serialize without the key, so
	// existing config echoes and goldens stay byte-identical.
	if err := base.normalize(); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("slo")) {
		t.Errorf("nil SLO must be omitted from config JSON: %s", raw)
	}
}

func TestSLODashboardSection(t *testing.T) {
	run := sloRun(&sloObjectives{MinAuthFraction: 0.9, TTAP99NS: 100e6})
	var md bytes.Buffer
	if err := RenderMarkdown(&md, DashboardInput{Runs: []*RunResult{run}}); err != nil {
		t.Fatal(err)
	}
	out := md.String()
	for _, want := range []string{
		"### SLO objectives — slo-20260808-000000",
		"| emss/bernoulli(p=0.2)/n=16/r=8 | auth_fraction | 0.9000 | 0.9500 | ok |",
		"| emss/bernoulli(p=0.4)/n=16/r=8 | auth_fraction | 0.9000 | 0.6000 | **missed** |",
		"| emss/bernoulli(p=0.4)/n=16/r=8 | tta_p99 | 100.00ms | 250.00ms | **missed** |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard missing %q\n--- markdown ---\n%s", want, out)
		}
	}

	// A run without objectives renders no SLO section at all, keeping
	// pre-SLO dashboards byte-identical.
	var plain bytes.Buffer
	if err := RenderMarkdown(&plain, DashboardInput{Runs: []*RunResult{sloRun(nil)}}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "SLO objectives") {
		t.Error("runs without an SLO block must not render the SLO section")
	}
}
