package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"text/tabwriter"
	"time"
)

// SLO states, ordered by severity. A stream is "red" when an objective's
// error budget for the sliding window is exhausted (burn rate >= 1),
// "warn" when more than half the budget is burned, "ok" otherwise, and
// "idle" before MinSample attempts have accumulated (too little data to
// judge either way).
const (
	sloIdle = "idle"
	sloOk   = "ok"
	sloWarn = "warn"
	sloRed  = "red"
)

// SLOConfig declares the per-stream objectives the tracker evaluates.
type SLOConfig struct {
	// Window is the sliding evaluation window (default 60s).
	Window time.Duration
	// Slots is the window's bucket count (default 12): budget accounting
	// expires in Window/Slots granules rather than all at once.
	Slots int
	// TimeToAuthP99 is the latency objective: at most 1% of
	// authentications in the window may take longer than this. Zero
	// disables the objective.
	TimeToAuthP99 time.Duration
	// MinAuthFraction is the authenticated-fraction objective: at least
	// this fraction of packet verification attempts in the window must
	// authenticate. It is a mean over packets, not the paper's q_min, the
	// worst packet's probability: for EMSS E_{2,1} at n = 60 and i.i.d.
	// loss 0.1 the mean is 0.781 where q_min is 0.591. Zero disables the
	// objective; 1 means any failure is over budget.
	MinAuthFraction float64
	// MinSample is the minimum attempts in the window before objectives
	// are judged (default 20); below it the stream reports "idle".
	MinSample int64
	// Clock overrides the time source (tests).
	Clock func() time.Time
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	if c.Slots <= 0 {
		c.Slots = 12
	}
	if c.MinSample <= 0 {
		c.MinSample = 20
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// SLOSample is one batch of per-stream verification outcomes: deltas since
// the previous sample, not cumulative totals.
type SLOSample struct {
	// Authenticated counts packets that authenticated.
	Authenticated int64
	// Failed counts packets that did not: rejects, decode errors, and
	// packets still unauthenticated at sampling time (starvation under
	// loss counts against the budget — exactly the paper's
	// non-authenticable fraction).
	Failed int64
	// TimeToAuth holds the arrival-to-authentication latencies of the
	// newly authenticated packets.
	TimeToAuth HistogramData
}

type sloSlot struct {
	epoch  int64 // slot index since the epoch; -1 when empty
	sample SLOSample
}

type sloStream struct {
	slots []sloSlot
}

// SLOTracker evaluates declarative per-stream SLOs over a sliding window
// with error-budget/burn-rate accounting. Feed it outcome deltas with
// Observe; read it via status, the /slo HTTP handler, Export (gauges on a
// metrics registry), or WriteText (statusz section). All methods are
// nil-safe and concurrency-safe.
type SLOTracker struct {
	cfg     SLOConfig
	slotDur time.Duration

	mu      sync.Mutex
	streams map[uint64]*sloStream
}

// NewSLOTracker builds a tracker for cfg's objectives.
func NewSLOTracker(cfg SLOConfig) *SLOTracker {
	cfg = cfg.withDefaults()
	return &SLOTracker{
		cfg:     cfg,
		slotDur: cfg.Window / time.Duration(cfg.Slots),
		streams: make(map[uint64]*sloStream),
	}
}

// Observe folds one sample delta into the stream's current window slot.
func (t *SLOTracker) Observe(stream uint64, s SLOSample) {
	if t == nil {
		return
	}
	epoch := t.cfg.Clock().UnixNano() / int64(t.slotDur)
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.streams[stream]
	if st == nil {
		st = &sloStream{slots: make([]sloSlot, t.cfg.Slots)}
		for i := range st.slots {
			st.slots[i].epoch = -1
		}
		t.streams[stream] = st
	}
	slot := &st.slots[epoch%int64(t.cfg.Slots)]
	if slot.epoch != epoch {
		slot.epoch = epoch
		slot.sample = SLOSample{}
	}
	slot.sample.Authenticated += s.Authenticated
	slot.sample.Failed += s.Failed
	slot.sample.TimeToAuth.Merge(s.TimeToAuth)
}

// windowSample merges the live slots of one stream.
func (t *SLOTracker) windowSample(st *sloStream, epoch int64) SLOSample {
	var w SLOSample
	oldest := epoch - int64(t.cfg.Slots) + 1
	for i := range st.slots {
		if st.slots[i].epoch < oldest {
			continue
		}
		w.Authenticated += st.slots[i].sample.Authenticated
		w.Failed += st.slots[i].sample.Failed
		w.TimeToAuth.Merge(st.slots[i].sample.TimeToAuth)
	}
	return w
}

// ObjectiveStatus is one objective's evaluation over the current window.
type ObjectiveStatus struct {
	// Name is "auth_fraction" or "tta_p99".
	Name string `json:"name"`
	// Target is the declared objective: the minimum authenticated
	// fraction, or the maximum p99 time-to-auth in nanoseconds.
	Target float64 `json:"target"`
	// Actual is the measured value on the same scale as Target.
	Actual float64 `json:"actual"`
	// BurnRate is budget consumed over budget allowed for the window:
	// >= 1 means the objective is violated.
	BurnRate float64 `json:"burn_rate"`
	// BudgetRemaining is 1 - BurnRate, floored at -1 for readability.
	BudgetRemaining float64 `json:"budget_remaining"`
	// State is ok, warn, or red.
	State string `json:"state"`
}

// StreamSLO is one stream's window summary plus objective evaluations.
type StreamSLO struct {
	Stream        uint64            `json:"stream"`
	Attempts      int64             `json:"attempts"`
	Authenticated int64             `json:"authenticated"`
	Failed        int64             `json:"failed"`
	AuthFraction  float64           `json:"auth_fraction"`
	TTAP50NS      float64           `json:"tta_p50_ns"`
	TTAP99NS      float64           `json:"tta_p99_ns"`
	Objectives    []ObjectiveStatus `json:"objectives,omitempty"`
	State         string            `json:"state"`
}

// SLOStatus is the full machine-readable /slo document.
type SLOStatus struct {
	AtUnixNS int64       `json:"at_unix_ns"`
	WindowNS int64       `json:"window_ns"`
	State    string      `json:"state"`
	Streams  []StreamSLO `json:"streams"`
}

// sloAllowedSlowFraction is the latency objective's error budget: the
// fraction of authentications allowed above the p99 target (by definition
// of a p99 objective).
const sloAllowedSlowFraction = 0.01

func burnState(burn float64) string {
	switch {
	case burn >= 1:
		return sloRed
	case burn > 0.5:
		return sloWarn
	default:
		return sloOk
	}
}

func worseState(a, b string) string {
	rank := func(s string) int {
		switch s {
		case sloRed:
			return 3
		case sloWarn:
			return 2
		case sloOk:
			return 1
		default:
			return 0
		}
	}
	if rank(b) > rank(a) {
		return b
	}
	return a
}

// burnOf turns a bad-event fraction and its allowance into a burn rate.
// A zero allowance means any bad event exhausts the budget immediately.
func burnOf(badFrac, allowed float64) float64 {
	if badFrac <= 0 {
		return 0
	}
	if allowed <= 0 {
		return badFrac * float64(1<<20) // effectively infinite burn, finite JSON
	}
	return badFrac / allowed
}

// countAbove estimates how many observations exceed threshold, linearly
// interpolating within the straddling bucket (mirroring Quantile).
func countAbove(h HistogramData, threshold int64) float64 {
	if h.Count == 0 {
		return 0
	}
	var above float64
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		lo := int64(0)
		if i > 0 {
			lo = bucketUpperBound(i - 1)
		}
		hi := bucketUpperBound(i)
		switch {
		case lo >= threshold:
			above += float64(c)
		case hi <= threshold:
			// entirely below
		default:
			above += float64(c) * float64(hi-threshold) / float64(hi-lo)
		}
	}
	return above
}

// evaluate computes one stream's status from its window sample.
func (t *SLOTracker) evaluate(stream uint64, w SLOSample) StreamSLO {
	s := StreamSLO{
		Stream:        stream,
		Attempts:      w.Authenticated + w.Failed,
		Authenticated: w.Authenticated,
		Failed:        w.Failed,
		TTAP50NS:      w.TimeToAuth.P50(),
		TTAP99NS:      w.TimeToAuth.P99(),
		State:         sloIdle,
	}
	if s.Attempts > 0 {
		s.AuthFraction = float64(w.Authenticated) / float64(s.Attempts)
	}
	if s.Attempts < t.cfg.MinSample {
		return s
	}
	s.State = sloOk
	if q := t.cfg.MinAuthFraction; q > 0 {
		failFrac := 0.0
		if s.Attempts > 0 {
			failFrac = float64(w.Failed) / float64(s.Attempts)
		}
		burn := burnOf(failFrac, 1-q)
		o := ObjectiveStatus{
			Name:            "auth_fraction",
			Target:          q,
			Actual:          s.AuthFraction,
			BurnRate:        burn,
			BudgetRemaining: maxf(1-burn, -1),
			State:           burnState(burn),
		}
		s.Objectives = append(s.Objectives, o)
		s.State = worseState(s.State, o.State)
	}
	if p99 := t.cfg.TimeToAuthP99; p99 > 0 && w.TimeToAuth.Count > 0 {
		slowFrac := countAbove(w.TimeToAuth, p99.Nanoseconds()) / float64(w.TimeToAuth.Count)
		burn := burnOf(slowFrac, sloAllowedSlowFraction)
		o := ObjectiveStatus{
			Name:            "tta_p99",
			Target:          float64(p99.Nanoseconds()),
			Actual:          s.TTAP99NS,
			BurnRate:        burn,
			BudgetRemaining: maxf(1-burn, -1),
			State:           burnState(burn),
		}
		s.Objectives = append(s.Objectives, o)
		s.State = worseState(s.State, o.State)
	}
	return s
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// status evaluates every stream over the current window. Streams are
// sorted by ID; the document state is the worst stream state.
func (t *SLOTracker) status() SLOStatus {
	out := SLOStatus{State: sloIdle}
	if t == nil {
		return out
	}
	now := t.cfg.Clock()
	out.AtUnixNS = now.UnixNano()
	out.WindowNS = int64(t.cfg.Window)
	epoch := now.UnixNano() / int64(t.slotDur)
	t.mu.Lock()
	ids := make([]uint64, 0, len(t.streams))
	for id := range t.streams {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		w := t.windowSample(t.streams[id], epoch)
		s := t.evaluate(id, w)
		out.Streams = append(out.Streams, s)
		out.State = worseState(out.State, s.State)
	}
	t.mu.Unlock()
	return out
}

// Red reports whether any stream's budget is currently exhausted — the
// flight-recorder trigger condition.
func (t *SLOTracker) Red() bool {
	return t != nil && t.status().State == sloRed
}

// ServeHTTP renders status as JSON: the machine-readable /slo endpoint the
// adaptive planner polls.
func (t *SLOTracker) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(t.status())
}

// Register installs the /slo handler on mux.
func (t *SLOTracker) Register(mux *http.ServeMux) {
	mux.Handle("/slo", t)
}

// Export mirrors the current evaluation into registry gauges
// (slo.stream.<id>.*), so SLO state rides the existing /metrics
// exposition and JSONL snapshot series. Burn rates and fractions are
// scaled to parts-per-thousand (the registry is integer-valued).
func (t *SLOTracker) Export(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	st := t.status()
	red := int64(0)
	for _, s := range st.Streams {
		prefix := fmt.Sprintf("slo.stream.%d.", s.Stream)
		reg.Gauge(prefix + "attempts").Set(s.Attempts)
		reg.Gauge(prefix + "auth_fraction_milli").Set(int64(s.AuthFraction * 1000))
		reg.Gauge(prefix + "tta_p99_ns").Set(int64(s.TTAP99NS))
		for _, o := range s.Objectives {
			reg.Gauge(prefix + o.Name + "_burn_milli").Set(int64(o.BurnRate * 1000))
		}
		if s.State == sloRed {
			red++
		}
	}
	reg.Gauge("slo.red_streams").Set(red)
}

// WriteText renders status as a human-readable table (statusz section).
func (t *SLOTracker) WriteText(w io.Writer) error {
	st := t.status()
	fmt.Fprintf(w, "--- slo (window %v, state %s) ---\n", time.Duration(st.WindowNS), st.State)
	if len(st.Streams) == 0 {
		_, err := fmt.Fprintln(w, "no streams observed")
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "stream\tattempts\tauth%\tp99(ms)\tobjective\tburn\tbudget\tstate")
	for _, s := range st.Streams {
		if len(s.Objectives) == 0 {
			fmt.Fprintf(tw, "%d\t%d\t%.1f\t%.2f\t-\t-\t-\t%s\n",
				s.Stream, s.Attempts, s.AuthFraction*100, s.TTAP99NS/1e6, s.State)
			continue
		}
		for i, o := range s.Objectives {
			lead := fmt.Sprintf("%d\t%d\t%.1f\t%.2f", s.Stream, s.Attempts, s.AuthFraction*100, s.TTAP99NS/1e6)
			if i > 0 {
				lead = "\t\t\t"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.2f\t%s\n", lead, o.Name, o.BurnRate, o.BudgetRemaining, o.State)
		}
	}
	return tw.Flush()
}
