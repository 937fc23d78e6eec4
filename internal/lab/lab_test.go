package lab

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcauth/internal/conformance"
)

func smokeConfig() Config {
	return Config{
		Name:       "smoke",
		Seed:       7,
		Trials:     400,
		Receivers:  []int{40},
		BlockSizes: []int{8},
		Schemes:    []schemeConfig{{ID: "rohatgi"}, {ID: "emss"}},
		Loss:       []lossConfig{{Model: "bernoulli", P: 0.2}, {Model: "gilbert", P: 0.25}},
	}
}

func TestConfigNormalizeAndCells(t *testing.T) {
	c := Config{Name: "x", Schemes: []schemeConfig{{ID: "emss"}}, Loss: []lossConfig{{Model: "gilbert", P: 0.1}}}
	if err := c.normalize(); err != nil {
		t.Fatal(err)
	}
	if c.Trials != 4000 || c.Receivers[0] != 200 || c.BlockSizes[0] != 16 {
		t.Errorf("defaults not applied: %+v", c)
	}
	if c.Schemes[0].M != 2 || c.Schemes[0].D != 1 || c.Loss[0].Burst != 4 {
		t.Errorf("scheme/loss defaults not applied: %+v", c)
	}
	if c.hasPath(pathServer) || !c.hasPath(pathNetsim) {
		t.Errorf("default paths wrong: %v", c.Paths)
	}

	smoke := smokeConfig()
	cells := smoke.cells()
	if len(cells) != 4 {
		t.Fatalf("cell count = %d, want 4", len(cells))
	}
	// Scheme-major enumeration, the artifact and dashboard row order.
	if cells[0].Scheme.ID != "rohatgi" || cells[1].Scheme.ID != "rohatgi" || cells[2].Scheme.ID != "emss" {
		t.Errorf("cells not scheme-major: %+v", cells)
	}
	if id := cells[1].id(); id != "rohatgi/gilbert(p=0.25)/n=8/r=40" {
		t.Errorf("cell ID = %q", id)
	}

	for _, bad := range []Config{
		{Name: "", Schemes: []schemeConfig{{ID: "emss"}}, Loss: []lossConfig{{Model: "bernoulli"}}},
		{Name: "a b", Schemes: []schemeConfig{{ID: "emss"}}, Loss: []lossConfig{{Model: "bernoulli"}}},
		{Name: "x", Schemes: []schemeConfig{{ID: "nope"}}, Loss: []lossConfig{{Model: "bernoulli"}}},
		{Name: "x", Schemes: []schemeConfig{{ID: "emss"}}, Loss: []lossConfig{{Model: "bernoulli", P: 1.5}}},
		{Name: "x", Schemes: []schemeConfig{{ID: "emss"}}, Loss: []lossConfig{{Model: "waves"}}},
		{Name: "x", Schemes: []schemeConfig{{ID: "emss"}}, Loss: []lossConfig{{Model: "bernoulli"}}, Paths: []string{"quantum"}},
	} {
		bad := bad
		if err := bad.normalize(); err == nil {
			t.Errorf("invalid config accepted: %+v", bad)
		}
	}

	if _, err := ReadConfig("sweep.yaml"); err == nil || !strings.Contains(err.Error(), "YAML") {
		t.Errorf("YAML config must get a targeted error, got %v", err)
	}
	if _, err := decodeConfig(strings.NewReader(`{"name":"x","unknown":1}`)); err == nil {
		t.Error("unknown config field accepted")
	}
}

// TestRunByteIdenticalAcrossWorkers is the sweep-level determinism
// contract: every artifact a run writes is byte-identical at -workers 1
// and 4 (server_metrics.json, wall-clock by design, is absent here since
// the config has no server path).
func TestRunByteIdenticalAcrossWorkers(t *testing.T) {
	cfg := smokeConfig()
	base := t.TempDir()
	var dirs [2]string
	for i, workers := range []int{1, 4} {
		out := filepath.Join(base, fmt.Sprintf("w%d", workers))
		_, dir, err := Run(cfg, workers, out, "20260101T000000Z")
		if err != nil {
			t.Fatal(err)
		}
		dirs[i] = dir
	}
	compareTrees(t, dirs[0], dirs[1], 4) // config, cells, metrics, ≥1 report
}

func compareTrees(t *testing.T, a, b string, min int) {
	t.Helper()
	seen := 0
	err := filepath.Walk(a, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(a, path)
		if err != nil {
			return err
		}
		got, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		want, err := os.ReadFile(filepath.Join(b, rel))
		if err != nil {
			return err
		}
		if string(got) != string(want) {
			t.Errorf("%s differs across worker counts", rel)
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen < min {
		t.Errorf("only %d artifacts compared, expected at least %d", seen, min)
	}
}

// TestRunLayersAgree sanity-checks the smoke sweep's physics: every cell,
// bursty ones included, has an analytic value for its own channel that
// Monte-Carlo and netsim agree with to within the scaled binomial
// tolerance, and q_min values live in (0, 1].
func TestRunLayersAgree(t *testing.T) {
	cfg := smokeConfig()
	run, dir, err := Run(cfg, 2, t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(run.Cells))
	}
	params := cellParams(cfg.Trials, cfg.Receivers[0])
	for _, c := range run.Cells {
		if !c.HasMonteCarlo || !c.HasMeasured {
			t.Fatalf("%s: missing MC or measured layer: %+v", c.ID, c)
		}
		if c.MonteCarlo <= 0 || c.MonteCarlo > 1 || c.Measured <= 0 || c.Measured > 1 {
			t.Errorf("%s: q_min out of (0,1]: mc=%v measured=%v", c.ID, c.MonteCarlo, c.Measured)
		}
		if !c.HasAnalytic {
			t.Errorf("%s: cell missing analytic layer", c.ID)
			continue
		}
		if d := math.Abs(c.Analytic - c.MonteCarlo); d > params.MCTol {
			t.Errorf("%s: analytic %v vs MC %v (Δ=%v > %v)", c.ID, c.Analytic, c.MonteCarlo, d, params.MCTol)
		}
		if d := math.Abs(c.Analytic - c.Measured); d > params.NetsimTol {
			t.Errorf("%s: analytic %v vs measured %v (Δ=%v > %v)", c.ID, c.Analytic, c.Measured, d, params.NetsimTol)
		}
		// Rohatgi's signature leads the block, so packets authenticate at
		// arrival (all-zero latency is correct); EMSS's signature trails,
		// so early packets must wait for it.
		if c.TimeToAuthNS.Count == 0 {
			t.Errorf("%s: empty time-to-auth summary: %+v", c.ID, c.TimeToAuthNS)
		}
		if c.SchemeID == "emss" && c.TimeToAuthNS.P95 <= 0 {
			t.Errorf("%s: EMSS time-to-auth p95 = %v, want > 0 (early packets wait for the trailing signature)",
				c.ID, c.TimeToAuthNS.P95)
		}
		if c.OverheadHashesPerPacket <= 0 || c.OverheadBytesPerPacket <= 0 {
			t.Errorf("%s: overhead not recorded: %+v", c.ID, c)
		}
	}

	// The run directory round-trips.
	back, err := loadRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "smoke" || len(back.Cells) != 4 {
		t.Errorf("LoadRun mismatch: %+v", back)
	}
	runs, err := LoadRuns(filepath.Dir(dir))
	if err != nil || len(runs) != 1 {
		t.Errorf("LoadRuns: %v, %d runs", err, len(runs))
	}
}

// TestRunServerPath drives one cell through the batch-signing serving
// tier and checks the deterministic counters plus the wall-clock metrics
// side file.
func TestRunServerPath(t *testing.T) {
	cfg := Config{
		Name:       "srv",
		Seed:       3,
		Trials:     50,
		Receivers:  []int{4},
		BlockSizes: []int{4},
		Schemes:    []schemeConfig{{ID: "emss"}},
		Loss:       []lossConfig{{Model: "bernoulli", P: 0.1}},
		Paths:      []string{pathServer},
		Server:     serverConfig{Streams: 3, Blocks: 2, Batch: 4},
	}
	run, dir, err := Run(cfg, 2, t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	s := run.Cells[0].Server
	if s == nil {
		t.Fatal("server result missing")
	}
	if s.Published != int64(3*2*4) || s.Verified != s.Published {
		t.Errorf("published/verified = %d/%d, want 24/24", s.Published, s.Verified)
	}
	// 3 streams × 2 blocks = 6 roots in batches of 4 → 2 signatures.
	if s.SignedRoots != 6 || s.Signatures != 2 {
		t.Errorf("roots/signatures = %d/%d, want 6/2", s.SignedRoots, s.Signatures)
	}
	sm, err := LoadServerMetrics(dir)
	if err != nil {
		t.Fatal(err)
	}
	if h := sm[run.Cells[0].ID].Histograms["server.root_hold_ns"]; h.Count == 0 {
		t.Errorf("root-hold histogram missing from server_metrics.json: %+v", sm)
	}
}

// TestOverlayConfigNormalize pins the overlay knob defaults and the
// rejection of inconsistent tree shapes.
func TestOverlayConfigNormalize(t *testing.T) {
	base := func() Config {
		return Config{
			Name:    "ov",
			Schemes: []schemeConfig{{ID: "emss"}},
			Loss:    []lossConfig{{Model: "bernoulli", P: 0.1}},
			Paths:   []string{pathOverlay},
		}
	}
	c := base()
	c.Overlay = &overlayConfig{EdgeP: 0.4}
	if err := c.normalize(); err != nil {
		t.Fatal(err)
	}
	o := c.Overlay
	if o.Depth != 2 || o.Fanout != 4 || o.LossyEdges != 1 || o.RepairRTTMS != 40 {
		t.Errorf("overlay defaults not applied: %+v", o)
	}
	// Nil overlay block with the path selected gets full defaults.
	c2 := base()
	if err := c2.normalize(); err != nil {
		t.Fatal(err)
	}
	if c2.Overlay == nil || c2.Overlay.Depth != 2 || c2.Overlay.LossyEdges != 0 {
		t.Errorf("nil overlay block not defaulted: %+v", c2.Overlay)
	}

	for name, ov := range map[string]*overlayConfig{
		"edge_p out of range":        {EdgeP: 1.0},
		"negative rtt":               {RepairRTTMS: -1},
		"lossy edges beyond fanout":  {EdgeP: 0.5, Fanout: 2, LossyEdges: 3},
		"lossy edge on depth-1 tree": {EdgeP: 0.5, Depth: 1},
		"negative fanout":            {Fanout: -2},
	} {
		bad := base()
		bad.Overlay = ov
		if err := bad.normalize(); err == nil {
			t.Errorf("%s: invalid overlay config accepted: %+v", name, ov)
		}
	}
}

// TestRunOverlayPath drives one cell through the relay fan-out path. The
// seed matches examples/lab/overlay.json's first cell, whose seeded lossy
// edge deterministically drops a signature wire — so the relays-on run
// must show upstream repairs and a strictly positive gain. Artifacts stay
// byte-identical across worker counts.
func TestRunOverlayPath(t *testing.T) {
	cfg := Config{
		Name:       "ovrun",
		Seed:       3,
		Trials:     50,
		Receivers:  []int{48},
		BlockSizes: []int{12},
		Schemes:    []schemeConfig{{ID: "emss"}},
		Loss:       []lossConfig{{Model: "bernoulli", P: 0.1}},
		Paths:      []string{pathOverlay},
		Overlay:    &overlayConfig{Depth: 2, Fanout: 4, EdgeP: 0.5, LossyEdges: 2},
	}
	base := t.TempDir()
	var dirs [2]string
	var run *RunResult
	for i, workers := range []int{1, 4} {
		r, dir, err := Run(cfg, workers, filepath.Join(base, fmt.Sprintf("w%d", workers)), "20260101T000000Z")
		if err != nil {
			t.Fatal(err)
		}
		run, dirs[i] = r, dir
	}
	compareTrees(t, dirs[0], dirs[1], 2) // config.json + cells.json: no netsim path, so no metrics/reports

	o := run.Cells[0].Overlay
	if o == nil {
		t.Fatal("overlay result missing")
	}
	if !o.Repairable {
		t.Fatalf("lossy-edge emss cell not marked repairable: %+v", o)
	}
	if o.AuthOff <= 0 || o.AuthOff > 1 || o.AuthOn <= 0 || o.AuthOn > 1 {
		t.Errorf("auth fractions out of (0,1]: %+v", o)
	}
	if o.AuthOn < o.AuthOff {
		t.Errorf("relays-on lowered authentication: on=%v off=%v (repairs only add material)", o.AuthOn, o.AuthOff)
	}
	if o.UpstreamRepaired == 0 {
		t.Error("seeded lossy edge produced no upstream repairs; the scenario went vacuous")
	}
	if o.Gain <= 0 {
		t.Errorf("gain %v not positive despite upstream repairs", o.Gain)
	}
	if len(o.Flagged) != 0 {
		t.Errorf("withholding audit flagged honest relays: %v", o.Flagged)
	}

	// The dashboard renders the overlay section for this run.
	var md strings.Builder
	if err := RenderMarkdown(&md, DashboardInput{Runs: []*RunResult{run}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "### Overlay fan-out") {
		t.Error("dashboard missing overlay section")
	}
}

// TestOverlayGate pins the require_overlay_gain semantics on synthetic
// runs: a gain below the floor fails, a vacuous zero-repair scenario
// fails, non-repairable cells pass, and a sweep that asks for the overlay
// path but produces no repairable cell fails at run level.
func TestOverlayGate(t *testing.T) {
	mkRun := func(o *overlayCellResult, overlayPath bool) *RunResult {
		cfg := Config{Name: "g", Paths: []string{pathNetsim}}
		if overlayPath {
			cfg.Paths = append(cfg.Paths, pathOverlay)
		}
		return &RunResult{
			Name: "g", Stamp: "s", Config: cfg,
			Cells: []CellResult{{ID: "cell", Overlay: o}},
		}
	}
	b := Baselines{RequireOverlayGain: 0.05}
	healthy := &overlayCellResult{Repairable: true, Gain: 0.08, UpstreamRepaired: 2, AuthOff: 0.4, AuthOn: 0.48}
	if errs := b.CheckRun(mkRun(healthy, true)); len(errs) != 0 {
		t.Errorf("healthy overlay cell gated: %v", errs)
	}
	low := &overlayCellResult{Repairable: true, Gain: 0.01, UpstreamRepaired: 2}
	if errs := b.CheckRun(mkRun(low, true)); len(errs) != 1 || !strings.Contains(errs[0].Error(), "below required floor") {
		t.Errorf("below-floor gain not gated: %v", errs)
	}
	vacuous := &overlayCellResult{Repairable: true, Gain: 0.5, UpstreamRepaired: 0}
	if errs := b.CheckRun(mkRun(vacuous, true)); len(errs) != 1 || !strings.Contains(errs[0].Error(), "vacuous") {
		t.Errorf("vacuous scenario not gated: %v", errs)
	}
	inert := &overlayCellResult{Repairable: false, Gain: 0}
	if errs := b.CheckRun(mkRun(inert, false)); len(errs) != 0 {
		t.Errorf("non-repairable cell gated: %v", errs)
	}
	// Overlay path requested, gate armed, but nothing repairable: the run
	// itself fails rather than passing on vacuous cells.
	if errs := b.CheckRun(mkRun(inert, true)); len(errs) != 1 || !strings.Contains(errs[0].Error(), "no cell produced a repairable overlay result") {
		t.Errorf("repairable-coverage check missing: %v", errs)
	}
	// The gate disarms at zero.
	if errs := (Baselines{}).CheckRun(mkRun(low, true)); len(errs) != 0 {
		t.Errorf("disarmed gate fired: %v", errs)
	}

	// File validation rejects an out-of-range floor.
	path := filepath.Join(t.TempDir(), "b.json")
	if err := os.WriteFile(path, []byte(`{"require_overlay_gain":-0.1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBaselines(path); err == nil {
		t.Error("negative require_overlay_gain accepted")
	}
}

// TestGatesInjectedViolation pins the acceptance criterion: a committed
// q_min floor above what a lossy cell can deliver must fail the check.
func TestGatesInjectedViolation(t *testing.T) {
	cfg := smokeConfig()
	run, _, err := Run(cfg, 2, t.TempDir(), "")
	if err != nil {
		t.Fatal(err)
	}
	ok := defaultBaselines()
	if errs := ok.CheckRun(run); len(errs) != 0 {
		t.Fatalf("healthy run fails default gates: %v", errs)
	}
	// Inject an impossible floor on the rohatgi cells: at p=0.2 a hash
	// chain cannot authenticate 99.9% of packets.
	bad := defaultBaselines()
	bad.Bounds = append(bad.Bounds, conformance.Bound{Case: "rohatgi", P: 0.2, MinQMin: 0.999})
	errs := bad.CheckRun(run)
	if len(errs) == 0 {
		t.Fatal("injected q_min floor violation not detected")
	}
	for _, err := range errs {
		if !strings.Contains(err.Error(), "baseline floor") {
			t.Errorf("unexpected violation kind: %v", err)
		}
	}

	// Round-trip the baselines file format.
	dir := t.TempDir()
	path := filepath.Join(dir, "baselines.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.writeBaselines(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	back, err := ReadBaselines(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.CheckRun(run)) != len(errs) {
		t.Error("baselines round-trip changed gate outcome")
	}
	if _, err := ReadBaselines(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing baselines file accepted")
	}
}

// TestReadBaselinesRejectsBenchKeys: a gate file carrying bench_threshold
// or bench_alloc_ceilings, keys Baselines does not define, is refused with
// an error naming the file, not read as though those gates were enforced.
func TestReadBaselinesRejectsBenchKeys(t *testing.T) {
	for _, body := range []string{
		`{"bounds":[],"bench_threshold":0.1}`,
		`{"bounds":[],"bench_alloc_ceilings":{"BenchmarkVerify/tesla":80}}`,
	} {
		path := filepath.Join(t.TempDir(), "stale.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := ReadBaselines(path)
		if err == nil {
			t.Errorf("%s accepted", body)
			continue
		}
		if !strings.Contains(err.Error(), path) {
			t.Errorf("%s: error %q does not name the file", body, err)
		}
	}
}

func TestDashboardRender(t *testing.T) {
	cfg := smokeConfig()
	run, _, err := Run(cfg, 2, t.TempDir(), "20260101T000000Z")
	if err != nil {
		t.Fatal(err)
	}
	in := DashboardInput{Runs: []*RunResult{run}}
	var a, b strings.Builder
	if err := RenderMarkdown(&a, in); err != nil {
		t.Fatal(err)
	}
	if err := RenderMarkdown(&b, in); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("dashboard render not deterministic")
	}
	md := a.String()
	for _, want := range []string{
		"# mcauth lab dashboard",
		"## q_min vs overhead — smoke-20260101T000000Z",
		"rohatgi/bernoulli(p=0.2)/n=8/r=40",
		"### Time to authentication",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	var html strings.Builder
	if err := RenderHTML(&html, md); err != nil {
		t.Fatal(err)
	}
	h := html.String()
	for _, want := range []string{
		"<h1>mcauth lab dashboard</h1>",
		"<table>",
		"<th>cell</th>",
		"<td>rohatgi/bernoulli(p=0.2)/n=8/r=40</td>",
	} {
		if !strings.Contains(h, want) {
			t.Errorf("HTML missing %q", want)
		}
	}
	if strings.Contains(h, "|---") {
		t.Error("alignment row leaked into HTML")
	}
}
