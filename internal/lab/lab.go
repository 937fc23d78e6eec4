// Package lab is the experiment-orchestration layer (ROADMAP item 5): it
// takes a declarative scenario config (schemes × loss models × block sizes
// × scales), executes every cell of the sweep through the repo's existing
// evaluation paths — the analytic q_min of each catalogue row (internal/catalog),
// Monte-Carlo on the dependence graph (internal/depgraph), the end-to-end
// network simulation (internal/netsim) and the batch-signing serving tier
// (internal/server) — and collects each run into a timestamped result
// directory: config echo, per-cell q_min across layers, obs metrics
// snapshots, and internal/diagnose root-cause reports.
//
// On top of collected runs, the dashboard renderer joins every lab run
// into one markdown+HTML dashboard, and the gate evaluator (mclab check)
// turns committed baselines — conformance bound tables plus the serving
// and overlay floors — into a non-zero exit status, so a change's effect
// on the paper's central quantities (authentication probability vs
// overhead) is a visible, gated data point instead of a buried JSON file.
// Performance is measured elsewhere, by `go run ./benchmark`.
//
// Cells execute on internal/parallel with a deterministic per-cell seed
// schedule, so every artifact a run writes is byte-identical at any
// -workers setting — the same contract the Monte-Carlo and netsim layers
// already honor, extended to whole sweeps (two-level parallelism: cells
// across workers, receivers/shards within a cell).
package lab

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"mcauth/internal/catalog"
	"mcauth/internal/loss"
)

// Config is the declarative sweep description. The cell set is the cross
// product Schemes × Loss × BlockSizes × Receivers; each cell runs every
// requested path.
type Config struct {
	// Name labels the run; the result directory is <Name>-<stamp>.
	Name string `json:"name"`
	// Seed derives every cell's RNG schedule.
	Seed uint64 `json:"seed"`
	// Trials is the Monte-Carlo trial count per cell (default 4000).
	Trials int `json:"trials,omitempty"`
	// Receivers lists the simulated multicast group sizes to sweep
	// (default [200]).
	Receivers []int `json:"receivers,omitempty"`
	// BlockSizes lists the block sizes to sweep (default [16]). The
	// augmented chain aligns each up to its segment boundary.
	BlockSizes []int `json:"block_sizes,omitempty"`
	// Schemes lists the constructions under test.
	Schemes []schemeConfig `json:"schemes"`
	// Loss lists the loss channels.
	Loss []lossConfig `json:"loss"`
	// Paths selects the evaluation layers: "analytic", "montecarlo",
	// "netsim", "server". Default: analytic, montecarlo, netsim.
	Paths []string `json:"paths,omitempty"`
	// Server tunes the serving-tier path (ignored unless "server" is in
	// Paths).
	Server serverConfig `json:"server,omitempty"`
	// Overlay tunes the relay fan-out path (ignored unless "overlay" is
	// in Paths). Nil with the overlay path selected gets the defaults.
	Overlay *overlayConfig `json:"overlay,omitempty"`
	// SLO, when set, declares per-cell service objectives the sweep must
	// meet: a floor on the measured authenticated fraction (the paper's
	// q_min, netsim path) and a ceiling on the simulated time-to-auth p99.
	// Objectives are rendered in the dashboard and enforced by
	// `mclab check`. Nil means no objectives (existing configs and their
	// artifacts are unchanged).
	SLO *sloObjectives `json:"slo,omitempty"`
}

// sloObjectives are the sweep-level service objectives. Zero-valued
// fields are unset: each objective only gates when its target is set and
// the cell ran the layer that produces the quantity.
type sloObjectives struct {
	// MinAuthFraction is the floor on each cell's measured q_min
	// (netsim-path authenticated fraction), in (0, 1].
	MinAuthFraction float64 `json:"min_auth_fraction,omitempty"`
	// TTAP99NS is the ceiling on each cell's simulated
	// arrival-to-authentication p99, in nanoseconds.
	TTAP99NS int64 `json:"tta_p99_ns,omitempty"`
}

// schemeConfig selects one construction and its knobs.
type schemeConfig struct {
	// ID is one of rohatgi|emss|augchain|authtree|signeach|tesla.
	ID string `json:"id"`
	// M, D are the EMSS E_{m,d} offsets (default 2, 1).
	M int `json:"m,omitempty"`
	D int `json:"d,omitempty"`
	// A, B are the augmented-chain C_{a,b} parameters (default 2, 2).
	A int `json:"a,omitempty"`
	B int `json:"b,omitempty"`
	// Lag is the TESLA disclosure lag in intervals (default 2).
	Lag int `json:"lag,omitempty"`
}

// lossConfig selects one loss channel.
type lossConfig struct {
	// Model is "bernoulli" or "gilbert".
	Model string `json:"model"`
	// P is the long-run loss rate.
	P float64 `json:"p"`
	// Burst is the mean burst length for "gilbert" (default 4).
	Burst float64 `json:"burst,omitempty"`
}

// serverConfig tunes the serving-tier cell path. Wall-clock quantities the
// server produces (root-hold times) are recorded in server_metrics.json,
// which is excluded from the byte-identity contract; everything in
// cells.json stays deterministic.
type serverConfig struct {
	// Streams is the number of concurrent streams (default 8).
	Streams int `json:"streams,omitempty"`
	// Blocks is the number of blocks published per stream (default 4).
	Blocks int `json:"blocks,omitempty"`
	// Batch is the signature batch size in block roots (default 16).
	Batch int `json:"batch,omitempty"`
	// Churn exercises subscriber churn with session resume: the initial
	// subscriber leaves mid-run, a late subscriber joins and is caught up
	// from the server's repair retention via ResumeFrom, and the cell
	// asserts the late subscriber still verifies every published message.
	// Requires Blocks >= 2. For a deterministic resume_catchup count pick
	// Batch > Streams*Blocks/2, so no batch signs before the handover.
	Churn bool `json:"churn,omitempty"`
}

// overlayConfig tunes the relay fan-out path: each cell re-runs its
// netsim configuration through netsim.RunOverlay on a uniform multicast
// tree, twice — relays off (passive forwarding) and relays on (NACK
// signature repairs served from relay retention) — and records the
// downstream authenticated fraction of both. The cell's loss model is the
// per-receiver last hop; tree edges are lossless except the first
// LossyEdges mid-tree edges, which drop packets i.i.d. at EdgeP, shared
// by their whole subtree. That shared-fate loss is exactly what the
// analytic closed forms cannot express (they assume i.i.d. per-receiver
// loss), so overlay cells are gated on the measured repair gain —
// relays-on minus relays-off — not on agreement with the formula.
type overlayConfig struct {
	// Depth and Fanout shape the uniform relay tree (defaults 2 and 4:
	// a 3-level source → mid → leaf topology with 16 leaf relays).
	Depth  int `json:"depth,omitempty"`
	Fanout int `json:"fanout,omitempty"`
	// EdgeP is the i.i.d. drop rate on each lossy mid-tree edge.
	EdgeP float64 `json:"edge_p,omitempty"`
	// LossyEdges is how many tree edges lose packets at EdgeP — edges
	// 1..LossyEdges, i.e. the edges feeding the first mid-tree relays,
	// each severing a clean 1/Fanout subtree (default 1 when EdgeP > 0).
	LossyEdges int `json:"lossy_edges,omitempty"`
	// RepairRTTMS is the NACK repair round trip in milliseconds
	// (default 40).
	RepairRTTMS int `json:"repair_rtt_ms,omitempty"`
}

// Path names.
const (
	pathAnalytic   = "analytic"
	pathMonteCarlo = "montecarlo"
	pathNetsim     = "netsim"
	pathServer     = "server"
	pathOverlay    = "overlay"
)

// normalize applies defaults in place and validates the config.
func (c *Config) normalize() error {
	if c.Name == "" {
		return fmt.Errorf("lab: config needs a name")
	}
	if strings.ContainsAny(c.Name, "/\\ ") {
		return fmt.Errorf("lab: name %q must be a path-safe token", c.Name)
	}
	if c.Trials == 0 {
		c.Trials = 4000
	}
	if c.Trials < 1 {
		return fmt.Errorf("lab: trials %d must be >= 1", c.Trials)
	}
	if len(c.Receivers) == 0 {
		c.Receivers = []int{200}
	}
	for _, r := range c.Receivers {
		if r < 1 {
			return fmt.Errorf("lab: receivers %d must be >= 1", r)
		}
	}
	if len(c.BlockSizes) == 0 {
		c.BlockSizes = []int{16}
	}
	for _, n := range c.BlockSizes {
		if n < 2 {
			return fmt.Errorf("lab: block size %d must be >= 2", n)
		}
	}
	if len(c.Schemes) == 0 {
		return fmt.Errorf("lab: config needs at least one scheme")
	}
	for i := range c.Schemes {
		s := &c.Schemes[i]
		if !slices.Contains(catalog.IDs(), s.ID) {
			return fmt.Errorf("lab: unknown scheme %q", s.ID)
		}
		if s.M == 0 {
			s.M = 2
		}
		if s.D == 0 {
			s.D = 1
		}
		if s.A == 0 {
			s.A = 2
		}
		if s.B == 0 {
			s.B = 2
		}
		if s.Lag == 0 {
			s.Lag = 2
		}
	}
	if len(c.Loss) == 0 {
		return fmt.Errorf("lab: config needs at least one loss model")
	}
	for i := range c.Loss {
		l := &c.Loss[i]
		switch l.Model {
		case "bernoulli":
			l.Burst = 0 // i.i.d.: no bursts
		case "gilbert":
			if l.Burst == 0 {
				l.Burst = 4
			}
			if l.Burst <= 1 {
				return fmt.Errorf("lab: gilbert burst %g must be > 1", l.Burst)
			}
		default:
			return fmt.Errorf("lab: unknown loss model %q", l.Model)
		}
		if l.P < 0 || l.P >= 1 {
			return fmt.Errorf("lab: loss rate %g out of [0,1)", l.P)
		}
	}
	if len(c.Paths) == 0 {
		c.Paths = []string{pathAnalytic, pathMonteCarlo, pathNetsim}
	}
	for _, p := range c.Paths {
		switch p {
		case pathAnalytic, pathMonteCarlo, pathNetsim, pathServer, pathOverlay:
		default:
			return fmt.Errorf("lab: unknown path %q", p)
		}
	}
	if c.hasPath(pathOverlay) {
		if c.Overlay == nil {
			c.Overlay = &overlayConfig{}
		}
		o := c.Overlay
		if o.Depth == 0 {
			o.Depth = 2
		}
		if o.Fanout == 0 {
			o.Fanout = 4
		}
		if o.LossyEdges == 0 && o.EdgeP > 0 {
			o.LossyEdges = 1
		}
		if o.RepairRTTMS == 0 {
			o.RepairRTTMS = 40
		}
		if o.Depth < 1 || o.Fanout < 1 {
			return fmt.Errorf("lab: overlay depth %d / fanout %d must be >= 1", o.Depth, o.Fanout)
		}
		if _, err := loss.NewOverlayTree(0, o.Depth, o.Fanout, o.LossyEdges, o.EdgeP, nil); err != nil {
			return fmt.Errorf("lab: %w", err)
		}
		if o.RepairRTTMS < 0 {
			return fmt.Errorf("lab: overlay repair_rtt_ms %d must be >= 0", o.RepairRTTMS)
		}
	}
	if c.Server.Streams == 0 {
		c.Server.Streams = 8
	}
	if c.Server.Blocks == 0 {
		c.Server.Blocks = 4
	}
	if c.Server.Batch == 0 {
		c.Server.Batch = 16
	}
	if c.Server.Streams < 1 || c.Server.Blocks < 1 || c.Server.Batch < 1 {
		return fmt.Errorf("lab: server knobs must be >= 1: %+v", c.Server)
	}
	if c.Server.Churn && c.Server.Blocks < 2 {
		return fmt.Errorf("lab: server churn needs blocks >= 2 (got %d): the handover happens at the halfway block", c.Server.Blocks)
	}
	if s := c.SLO; s != nil {
		if s.MinAuthFraction < 0 || s.MinAuthFraction > 1 {
			return fmt.Errorf("lab: slo min_auth_fraction %g out of [0,1]", s.MinAuthFraction)
		}
		if s.TTAP99NS < 0 {
			return fmt.Errorf("lab: slo tta_p99_ns %d must be >= 0", s.TTAP99NS)
		}
		if s.MinAuthFraction == 0 && s.TTAP99NS == 0 {
			return fmt.Errorf("lab: slo block set but no objective given (set min_auth_fraction and/or tta_p99_ns)")
		}
	}
	return nil
}

// hasPath reports whether the normalized config runs the named path.
func (c *Config) hasPath(name string) bool {
	for _, p := range c.Paths {
		if p == name {
			return true
		}
	}
	return false
}

// ReadConfig loads and normalizes a scenario config. Only JSON is parsed;
// a YAML extension gets a targeted error (the toolchain is
// dependency-free, so YAML sweeps must be converted to JSON first).
func ReadConfig(path string) (Config, error) {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".yaml", ".yml":
		return Config{}, fmt.Errorf("lab: %s: YAML configs need an external converter (no YAML parser is vendored); use JSON", path)
	}
	f, err := os.Open(path)
	if err != nil {
		return Config{}, err
	}
	defer f.Close()
	return decodeConfig(f)
}

// decodeConfig parses and normalizes a JSON scenario config.
func decodeConfig(r io.Reader) (Config, error) {
	var c Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("lab: config: %w", err)
	}
	if err := c.normalize(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// cell is one point of the sweep's cross product.
type cell struct {
	Scheme    schemeConfig
	Loss      lossConfig
	N         int
	Receivers int
}

// id labels the cell in results and dashboard rows ("/"-separated: "|"
// would break markdown table cells).
func (c cell) id() string {
	return fmt.Sprintf("%s/%s(p=%g)/n=%d/r=%d", c.Scheme.ID, c.Loss.Model, c.Loss.P, c.N, c.Receivers)
}

// cells enumerates the sweep in deterministic order: scheme-major, then
// loss, block size, scale — the iteration order every run artifact and
// the dashboard inherit.
func (c *Config) cells() []cell {
	var out []cell
	for _, s := range c.Schemes {
		for _, l := range c.Loss {
			for _, n := range c.BlockSizes {
				for _, r := range c.Receivers {
					out = append(out, cell{Scheme: s, Loss: l, N: n, Receivers: r})
				}
			}
		}
	}
	return out
}
