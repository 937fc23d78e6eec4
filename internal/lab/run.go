package lab

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"mcauth/internal/catalog"
	"mcauth/internal/conformance"
	"mcauth/internal/crypto"
	"mcauth/internal/delay"
	"mcauth/internal/diagnose"
	"mcauth/internal/loss"
	"mcauth/internal/netsim"
	"mcauth/internal/obs"
	"mcauth/internal/parallel"
	"mcauth/internal/scenario"
	"mcauth/internal/scheme"
	"mcauth/internal/schemetest"
	"mcauth/internal/serve"
	"mcauth/internal/server"
)

// qSummary condenses a histogram into the quantile triple the dashboard
// and gates consume. Computed from additive bucket counts, so it is
// deterministic for any worker count.
type qSummary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	Max   int64   `json:"max"`
}

func summarize(h obs.HistogramData) qSummary {
	s := qSummary{
		Count: h.Count,
		Mean:  h.Mean(),
		P50:   h.P50(),
		P95:   h.P95(),
		P99:   h.P99(),
	}
	if h.Count > 0 {
		s.Max = h.MaxSeen
	}
	return s
}

// serverResult is the deterministic summary of one cell's serving-tier
// path. Wall-clock quantities (root-hold latencies) are written to the
// run's server_metrics.json instead, which is outside the byte-identity
// contract.
type serverResult struct {
	Streams      int     `json:"streams"`
	Blocks       int     `json:"blocks"`
	Batch        int     `json:"batch"`
	Published    int64   `json:"published"`
	Verified     int64   `json:"verified"`
	Signatures   int64   `json:"signatures"`
	SignedRoots  int64   `json:"signed_roots"`
	Amortization float64 `json:"amortization"`
	// Churned records that the cell ran the subscriber-churn flow: the
	// late subscriber was caught up via ResumeFrom and ResumeCatchup
	// packets were replayed to it. Zero-valued (and omitted) for plain
	// cells, so existing goldens are unchanged.
	Churned       bool  `json:"churned,omitempty"`
	ResumeCatchup int64 `json:"resume_catchup,omitempty"`
}

// overlayCellResult is the deterministic summary of one cell's relay
// fan-out path: the same netsim configuration pushed through
// netsim.RunOverlay twice on the same seeded tree — relays off and relays
// on — so the gain column isolates what relay-served signature repairs
// buy under the configured correlated edge loss.
type overlayCellResult struct {
	Depth      int     `json:"depth"`
	Fanout     int     `json:"fanout"`
	EdgeP      float64 `json:"edge_p"`
	LossyEdges int     `json:"lossy_edges"`
	// AuthOff and AuthOn are the downstream authenticated fractions
	// (authenticated packets over receivers × wire positions) with relays
	// passive and with relays serving repairs.
	AuthOff float64 `json:"auth_off"`
	AuthOn  float64 `json:"auth_on"`
	// Gain is AuthOn - AuthOff, the quantity require_overlay_gain gates.
	Gain float64 `json:"gain"`
	// UpstreamRepaired counts signature wires relays recovered from their
	// parents; ReceiverRepairs counts last-hop repairs served to
	// receivers (both from the relays-on run). Zero upstream repairs
	// under a lossy edge means the seeded edge never dropped a signature
	// wire and the scenario is vacuous — the gate rejects that too.
	UpstreamRepaired int `json:"upstream_repaired"`
	ReceiverRepairs  int `json:"receiver_repairs"`
	// Flagged lists relays the withholding audit flagged (none expected:
	// the lab scenario has no adversary).
	Flagged []int `json:"flagged,omitempty"`
	// Repairable reports whether the scenario can show a repair gain at
	// all: the scheme has a signature class to repair and the tree has a
	// lossy edge to lose it on. The gain gate skips non-repairable cells.
	Repairable bool `json:"repairable"`
}

// CellResult is one cell's outcome across the evaluation layers. Absent
// layers (path not requested, or TESLA's closed form off i.i.d. loss) keep
// their Has* flag false; the value fields then hold zero, never NaN.
type CellResult struct {
	ID        string  `json:"id"`
	SchemeID  string  `json:"scheme_id"`
	Scheme    string  `json:"scheme"`
	LossModel string  `json:"loss_model"`
	Loss      string  `json:"loss"`
	P         float64 `json:"p"`
	N         int     `json:"n"`
	Receivers int     `json:"receivers"`
	Seed      uint64  `json:"seed"`

	HasAnalytic   bool    `json:"has_analytic"`
	Analytic      float64 `json:"analytic,omitempty"`
	HasMonteCarlo bool    `json:"has_montecarlo"`
	MonteCarlo    float64 `json:"montecarlo,omitempty"`
	HasMeasured   bool    `json:"has_measured"`
	Measured      float64 `json:"measured,omitempty"`

	// OverheadHashesPerPacket is Equation 2's average over the dependence
	// graph; OverheadBytesPerPacket is the measured wire-byte overhead
	// (encoded size minus payload bytes, per payload).
	OverheadHashesPerPacket float64 `json:"overhead_hashes_per_packet,omitempty"`
	OverheadBytesPerPacket  float64 `json:"overhead_bytes_per_packet,omitempty"`

	Sent          int `json:"sent,omitempty"`
	Delivered     int `json:"delivered,omitempty"`
	Lost          int `json:"lost,omitempty"`
	Authenticated int `json:"authenticated,omitempty"`

	// TimeToAuthNS summarizes simulated arrival-to-authentication latency
	// (netsim path only).
	TimeToAuthNS qSummary `json:"time_to_auth_ns"`

	// Causes is the diagnose root-cause tally (netsim path only).
	Causes map[string]int `json:"causes,omitempty"`

	Server  *serverResult      `json:"server,omitempty"`
	Overlay *overlayCellResult `json:"overlay,omitempty"`
}

// RunResult is everything one sweep writes to its result directory.
type RunResult struct {
	Name   string       `json:"name"`
	Stamp  string       `json:"stamp"`
	Config Config       `json:"config"`
	Cells  []CellResult `json:"cells"`
}

// RunID is the result-directory basename.
func (r *RunResult) RunID() string { return r.Name + "-" + r.Stamp }

// cellEntry builds the cell's scheme through conformance.Build, whose
// wire conventions the lab's analytic column depends on; the cell records
// the aligned n it runs at.
func cellEntry(c cell, signer crypto.Signer) (catalog.Entry, error) {
	sc := c.Scheme
	return conformance.Build(catalog.Spec{
		ID: sc.ID, N: c.N, M: sc.M, D: sc.D, A: sc.A, B: sc.B, Lag: sc.Lag,
		Interval: 10 * time.Millisecond, Seed: []byte("mclab"),
	}, signer)
}

// cellSeed derives the i-th cell's seed from the config seed. Indexed, not
// drawn from a shared stream, so cells are independent of scheduling.
func cellSeed(seed uint64, i int) uint64 {
	return seed + uint64(i+1)*0x9E3779B97F4A7C15
}

// cellArtifacts is everything one cell contributes to the run directory.
type cellArtifacts struct {
	result        CellResult
	metrics       obs.Snapshot
	report        *diagnose.Report
	serverMetrics *obs.Snapshot
}

// Run executes the sweep with the given outer worker count and writes the
// result directory under outDir. The stamp names the run (pass a fixed
// stamp for reproducible directory names; an empty stamp uses UTC now).
// Every written artifact is byte-identical for any workers value except
// server_metrics.json, which records wall-clock serving latencies.
func Run(cfg Config, workers int, outDir, stamp string) (*RunResult, string, error) {
	if err := cfg.normalize(); err != nil {
		return nil, "", err
	}
	if stamp == "" {
		stamp = time.Now().UTC().Format("20060102T150405Z")
	}
	cells := cfg.cells()
	arts, err := parallel.Map(workers, cells, func(i int, c cell) (cellArtifacts, error) {
		return runCell(cfg, c, cellSeed(cfg.Seed, i))
	})
	if err != nil {
		return nil, "", err
	}

	run := &RunResult{Name: cfg.Name, Stamp: stamp, Config: cfg}
	for _, a := range arts {
		run.Cells = append(run.Cells, a.result)
	}
	dir := filepath.Join(outDir, run.RunID())
	if err := writeRunDir(dir, run, arts); err != nil {
		return nil, "", err
	}
	return run, dir, nil
}

func runCell(cfg Config, c cell, seed uint64) (cellArtifacts, error) {
	entry, err := cellEntry(c, crypto.NewSignerFromString("mclab"))
	if err != nil {
		return cellArtifacts{}, fmt.Errorf("%s: %w", c.id(), err)
	}
	lossSpec := loss.Spec{P: c.Loss.P, Burst: c.Loss.Burst}
	lossModel, err := lossSpec.Model()
	if err != nil {
		return cellArtifacts{}, fmt.Errorf("%s: %w", c.id(), err)
	}
	res := CellResult{
		ID:        c.id(),
		SchemeID:  c.Scheme.ID,
		Scheme:    entry.Scheme.Name(),
		LossModel: c.Loss.Model,
		Loss:      lossModel.Name(),
		P:         c.Loss.P,
		N:         entry.Scheme.BlockSize(),
		Receivers: c.Receivers,
		Seed:      seed,
	}

	// Overhead: graph hashes/packet (Equation 2) and measured wire bytes
	// per payload beyond the payload itself.
	g, err := entry.Scheme.Graph()
	if err != nil {
		return cellArtifacts{}, fmt.Errorf("%s: graph: %w", c.id(), err)
	}
	res.OverheadHashesPerPacket = g.AvgHashesPerPacket()
	payloads := schemetest.Payloads(entry.Scheme.BlockSize())
	pkts, err := entry.Scheme.Authenticate(1, payloads)
	if err != nil {
		return cellArtifacts{}, fmt.Errorf("%s: authenticate: %w", c.id(), err)
	}
	wireBytes, payloadBytes := 0, 0
	for _, p := range pkts {
		wireBytes += p.EncodedSize()
	}
	for _, p := range payloads {
		payloadBytes += len(p)
	}
	res.OverheadBytesPerPacket = float64(wireBytes-payloadBytes) / float64(len(payloads))

	// One conformance cell: the analytic, Monte-Carlo and netsim layers the
	// config asks for, from one delivery.
	var effort conformance.Effort
	if cfg.hasPath(pathMonteCarlo) {
		effort.Trials, effort.MCSeed = cfg.Trials, seed^0x6d636c6162 // "mclab"
	}
	if cfg.hasPath(pathNetsim) {
		effort.Receivers, effort.SimSeed = c.Receivers, seed
		effort.Tracer, effort.Metrics = obs.NewSpanSink(obs.KeepAll, nil), obs.NewRegistry()
	}
	r, sim, err := conformance.Evaluate(conformance.Case{Name: c.id(), Entry: entry}, lossSpec, effort)
	if err != nil {
		return cellArtifacts{}, err
	}
	if cfg.hasPath(pathAnalytic) && !math.IsNaN(r.Analytic) {
		res.HasAnalytic, res.Analytic = true, r.Analytic
	}
	if !math.IsNaN(r.MonteCarlo) {
		res.HasMonteCarlo, res.MonteCarlo = true, r.MonteCarlo
	}
	arts := cellArtifacts{}
	if sim != nil {
		res.HasMeasured = true
		res.Measured = r.Measured
		for i := range sim.PerReceiver {
			rep := &sim.PerReceiver[i]
			res.Delivered += rep.Delivered
			res.Lost += rep.Lost
			res.Authenticated += rep.Stats.Authenticated
		}
		res.Sent = sim.WireCount * c.Receivers
		res.TimeToAuthNS = summarize(sim.TimeToAuth)

		opts, err := entry.DiagnoseOptions()
		if err != nil {
			return cellArtifacts{}, fmt.Errorf("%s: diagnose: %w", c.id(), err)
		}
		rep, err := diagnose.BuildReport(effort.Tracer.Snapshot(), 0, opts)
		if err != nil {
			return cellArtifacts{}, fmt.Errorf("%s: diagnose: %w", c.id(), err)
		}
		arts.report = rep
		if len(rep.Causes) > 0 {
			res.Causes = make(map[string]int, len(rep.Causes))
			for cause, n := range rep.Causes {
				res.Causes[string(cause)] = n
			}
		}
		arts.metrics = effort.Metrics.Snapshot()
	}

	if cfg.hasPath(pathOverlay) {
		or, err := runOverlayCell(cfg, c, entry, seed, lossSpec)
		if err != nil {
			return cellArtifacts{}, fmt.Errorf("%s: overlay: %w", c.id(), err)
		}
		res.Overlay = or
	}

	if cfg.hasPath(pathServer) && c.Scheme.ID != "tesla" {
		sr, snap, err := runServerCell(cfg, c)
		if err != nil {
			return cellArtifacts{}, fmt.Errorf("%s: server: %w", c.id(), err)
		}
		res.Server = sr
		arts.serverMetrics = snap
	}

	arts.result = res
	return arts, nil
}

// runOverlayCell runs the cell's netsim configuration through the relay
// tree twice — relays off, then relays on — and summarizes the repair
// gain. Both runs share the seed, tree and receiver RNG schedule, so the
// only difference is whether relays serve signature repairs.
func runOverlayCell(cfg Config, c cell, entry catalog.Entry, seed uint64, lossSpec loss.Spec) (*overlayCellResult, error) {
	ov := cfg.Overlay
	// The seed is decorrelated from the flat netsim path's; the last-hop
	// loss is the tree's leaf model.
	simCfg, err := scenario.Config(entry, c.Receivers, lossSpec, delay.Constant{D: conformance.Delay}, seed^0x66616e6f7574)
	if err != nil {
		return nil, err
	}
	simCfg.Workers = 1
	out := &overlayCellResult{
		Depth:      ov.Depth,
		Fanout:     ov.Fanout,
		EdgeP:      ov.EdgeP,
		LossyEdges: ov.LossyEdges,
		Repairable: len(entry.Signature) > 0 && ov.LossyEdges > 0 && ov.EdgeP > 0,
	}
	payloads := schemetest.Payloads(entry.Scheme.BlockSize())
	authFraction := func(relays bool) (*netsim.OverlayResult, float64, error) {
		// A fresh tree per run; its edge loss is a function of the
		// seed, so the relays-off and relays-on runs see the same drops.
		tree, err := loss.NewOverlayTree(seed, ov.Depth, ov.Fanout, ov.LossyEdges, ov.EdgeP, simCfg.Loss)
		if err != nil {
			return nil, 0, err
		}
		ocfg := netsim.OverlayConfig{
			Tree:      tree,
			Relays:    relays,
			RepairRTT: time.Duration(ov.RepairRTTMS) * time.Millisecond,
		}
		res, err := netsim.RunOverlay(entry.Scheme, simCfg, ocfg, 1, payloads)
		if err != nil {
			return nil, 0, err
		}
		return res, float64(res.TotalAuthenticated()) / float64(c.Receivers*res.WireCount), nil
	}
	_, off, err := authFraction(false)
	if err != nil {
		return nil, err
	}
	on, onFrac, err := authFraction(true)
	if err != nil {
		return nil, err
	}
	out.AuthOff, out.AuthOn, out.Gain = off, onFrac, onFrac-off
	for _, rep := range on.Relays {
		out.UpstreamRepaired += rep.UpstreamRepaired
	}
	out.ReceiverRepairs = on.TotalRepaired()
	out.Flagged = on.Flagged
	return out, nil
}

// runServerCell pushes the cell's scheme through the daemon's loopback
// (serve.Config.Loopback): cfg.Server.Streams streams × Blocks blocks
// through the batch-signing server into one verifying subscriber. Counts
// are deterministic (the flush timer is effectively disabled, so signature
// count is driven by batch arithmetic); latency histograms are wall-clock
// and returned separately.
//
// With Server.Churn set, the verifying subscriber is a late joiner: an
// initial subscriber watches the first half of the blocks and leaves, then
// the verifier joins and is caught up from the server's repair retention
// before following the second half live. It must still verify every
// published message — the session-resume guarantee.
func runServerCell(cfg Config, c cell) (*serverResult, *obs.Snapshot, error) {
	reg := obs.NewRegistry()
	sc := serve.Config{
		Streams: cfg.Server.Streams,
		Scheme: func(_ uint64, signer crypto.Signer) (scheme.Scheme, error) {
			e, err := cellEntry(c, signer)
			return e.Scheme, err
		},
		Key:    "mclab-server",
		Blocks: cfg.Server.Blocks,
		Batch:  cfg.Server.Batch,
		Flush:  time.Hour, // flush on Close, keeping counts deterministic
	}
	if cfg.Server.Churn {
		// Retain every block so the late joiner can be caught up from 0.
		sc.Repair = cfg.Server.Blocks + 2
	}
	srv, err := sc.StartServer(reg, nil)
	if err != nil {
		return nil, nil, err
	}
	// firstLive is the block the verifying subscriber starts watching live.
	firstLive := 0
	if cfg.Server.Churn {
		firstLive = cfg.Server.Blocks / 2
		if err := handover(sc, srv, firstLive); err != nil {
			srv.Close()
			return nil, nil, err
		}
	}
	lb, err := sc.Loopback(srv, firstLive, reg, nil)
	if err != nil {
		return nil, nil, err
	}
	if lb.Dropped > 0 {
		return nil, nil, fmt.Errorf("lab: server cell dropped %d deliveries (queue too small)", lb.Dropped)
	}
	if lb.Verified != lb.Published {
		return nil, nil, fmt.Errorf("lab: server cell verified %d of %d published messages", lb.Verified, lb.Published)
	}
	resumeCatchup := reg.Counter("server.resume_catchup_packets").Value()
	if cfg.Server.Churn && resumeCatchup == 0 {
		return nil, nil, fmt.Errorf("lab: churn resume replayed nothing")
	}
	tot := srv.BatchTotals()
	snap := reg.Snapshot()
	return &serverResult{
		Streams:       cfg.Server.Streams,
		Blocks:        cfg.Server.Blocks,
		Batch:         cfg.Server.Batch,
		Published:     lb.Published,
		Verified:      lb.Verified,
		Signatures:    tot.Signatures,
		SignedRoots:   tot.SignedRoots,
		Amortization:  tot.AmortizationRatio(),
		Churned:       cfg.Server.Churn,
		ResumeCatchup: resumeCatchup,
	}, &snap, nil
}

// handover is the churn cell's first subscriber: it watches blocks
// [0, firstLive) of every stream and leaves. Publish returns once every
// stream has emitted them, so the verifying subscriber after it must be
// caught up on them.
func handover(sc serve.Config, srv *server.Server, firstLive int) error {
	sub, err := srv.Subscribe()
	if err != nil {
		return err
	}
	drained := make(chan struct{})
	go func() {
		for range sub.C() {
		}
		close(drained)
	}()
	sc.Publish(context.Background(), srv, 0, firstLive)
	srv.Unsubscribe(sub)
	<-drained
	return nil
}

// writeRunDir lays out the timestamped result directory:
//
//	<dir>/config.json          — normalized config echo
//	<dir>/cells.json           — RunResult (name, stamp, config, cells)
//	<dir>/metrics.json         — per-cell obs snapshots (netsim path)
//	<dir>/reports/cell-XXX.json — per-cell diagnose reports
//	<dir>/server_metrics.json  — per-cell server snapshots (wall-clock;
//	                             excluded from byte-identity)
func writeRunDir(dir string, run *RunResult, arts []cellArtifacts) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSONFile(filepath.Join(dir, "config.json"), run.Config); err != nil {
		return err
	}
	if err := writeJSONFile(filepath.Join(dir, "cells.json"), run); err != nil {
		return err
	}
	metrics := make(map[string]obs.Snapshot)
	serverMetrics := make(map[string]obs.Snapshot)
	wroteReports := false
	for i, a := range arts {
		if a.report != nil {
			if !wroteReports {
				if err := os.MkdirAll(filepath.Join(dir, "reports"), 0o755); err != nil {
					return err
				}
				wroteReports = true
			}
			f, err := os.Create(filepath.Join(dir, "reports", fmt.Sprintf("cell-%03d.json", i)))
			if err != nil {
				return err
			}
			if err := a.report.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			metrics[a.result.ID] = a.metrics
		}
		if a.serverMetrics != nil {
			serverMetrics[a.result.ID] = *a.serverMetrics
		}
	}
	if len(metrics) > 0 {
		if err := writeJSONFile(filepath.Join(dir, "metrics.json"), metrics); err != nil {
			return err
		}
	}
	if len(serverMetrics) > 0 {
		if err := writeJSONFile(filepath.Join(dir, "server_metrics.json"), serverMetrics); err != nil {
			return err
		}
	}
	return nil
}

func writeJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadRun reads a result directory written by Run.
func loadRun(dir string) (*RunResult, error) {
	f, err := os.Open(filepath.Join(dir, "cells.json"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var run RunResult
	dec := json.NewDecoder(f)
	if err := dec.Decode(&run); err != nil {
		return nil, fmt.Errorf("lab: %s: %w", dir, err)
	}
	return &run, nil
}

// LoadRuns loads every result directory under outDir (any directory with
// a cells.json), sorted by directory name — stamps sort chronologically.
func LoadRuns(outDir string) ([]*RunResult, error) {
	entries, err := os.ReadDir(outDir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var runs []*RunResult
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(outDir, e.Name())
		if _, err := os.Stat(filepath.Join(dir, "cells.json")); err != nil {
			continue
		}
		run, err := loadRun(dir)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// LoadServerMetrics reads a run directory's server snapshot map, if any.
func LoadServerMetrics(dir string) (map[string]obs.Snapshot, error) {
	b, err := os.ReadFile(filepath.Join(dir, "server_metrics.json"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	out := make(map[string]obs.Snapshot)
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, fmt.Errorf("lab: %s: %w", dir, err)
	}
	return out, nil
}
