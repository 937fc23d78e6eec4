package diagnose

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"mcauth/internal/obs"
)

// quantileSet condenses a histogram for the report: deterministic for a
// given set of observations because it is computed from the additive
// bucket counts, never from observation order.
type quantileSet struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   int64   `json:"max"`
}

func quantiles(h obs.HistogramData) quantileSet {
	qs := quantileSet{
		Count: h.Count,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
	if h.Count > 0 {
		qs.Max = h.MaxSeen
	}
	return qs
}

// positionStat is the authentication outcome of one wire index across
// receivers: the empirical q_i of the paper, by block position.
type positionStat struct {
	Index         uint32  `json:"index"`
	Received      int     `json:"received"`
	Authenticated int     `json:"authenticated"`
	AuthRatio     float64 `json:"auth_ratio"`
}

// culpritCount ranks a culprit wire index by how many hash-path-cut
// diagnoses (across all receivers) blame it.
type culpritCount struct {
	Index uint32 `json:"index"`
	Count int    `json:"count"`
}

// faultCounts tallies the adversarial-channel events seen in the trace.
type faultCounts struct {
	Corrupted      int `json:"corrupted,omitempty"`
	Truncated      int `json:"truncated,omitempty"`
	ForgedInjected int `json:"forged_injected,omitempty"`
	ForgedRejected int `json:"forged_rejected,omitempty"`
}

// Report is the full root-cause analysis of one traced run. Its JSON
// encoding is deterministic: slices are sorted, maps have string keys
// (encoding/json sorts those), and every aggregate is computed from
// order-independent folds of the trace.
type Report struct {
	Scheme    string `json:"scheme,omitempty"`
	WireCount int    `json:"wire_count"`
	Receivers int    `json:"receivers"`
	RootIndex uint32 `json:"root_index,omitempty"`
	// SkippedTraceLines counts the lines the trace reader (obs.ReadSpans)
	// skipped as damaged or not trace records; nonzero means the analysis
	// ran on a damaged or mixed trace.
	SkippedTraceLines int `json:"skipped_trace_lines,omitempty"`

	Sent            int `json:"sent"`
	Delivered       int `json:"delivered"`
	Authenticated   int `json:"authenticated"`
	Unauthenticated int `json:"unauthenticated"`

	// Causes maps each root cause to its diagnosis count.
	Causes map[Cause]int `json:"causes"`
	// TopCulprits ranks lost packets by how many hash-path-cut failures
	// blame them (descending count, ascending index; at most 10).
	TopCulprits []culpritCount `json:"top_culprits,omitempty"`
	// ByPosition is the per-wire-index outcome over the diagnosis scope.
	ByPosition []positionStat `json:"by_position"`

	// TimeToAuthNS summarizes arrival-to-authentication latency.
	TimeToAuthNS quantileSet `json:"time_to_auth_ns"`
	// BufferDepth summarizes message-buffer occupancy after buffering.
	BufferDepth quantileSet `json:"buffer_depth"`
	// OverflowDrops counts bounded-buffer evictions.
	OverflowDrops int `json:"overflow_drops,omitempty"`

	// OverheadHashesPerPacket is the dependence-graph overhead (Equation
	// 2's average), present when a graph was supplied.
	OverheadHashesPerPacket float64 `json:"overhead_hashes_per_packet,omitempty"`

	Faults faultCounts `json:"faults"`

	// Diagnoses is the full per-packet verdict list, sorted by
	// (receiver, index).
	Diagnoses []packetDiagnosis `json:"diagnoses,omitempty"`
}

// topCulpritsLimit bounds the ranking in the report; the full culprit
// detail stays available per diagnosis.
const topCulpritsLimit = 10

// BuildReport runs the full trace→graph join: classify every
// unauthenticated packet and aggregate the run summaries. skippedLines is
// the skipped-line count from obs.ReadSpans (0 for in-memory traces).
func BuildReport(spans []obs.Span, skippedLines int, opts Options) (*Report, error) {
	rs := collect(spans)
	diagnoses, err := diagnose(rs, opts)
	if err != nil {
		return nil, err
	}
	rootIndex := opts.RootIndex
	if rootIndex == 0 {
		rootIndex = rs.rootIndex
	}
	rep := &Report{
		Scheme:            rs.scheme,
		WireCount:         rs.wireCount,
		Receivers:         len(rs.receivers),
		RootIndex:         rootIndex,
		SkippedTraceLines: skippedLines,
		Sent:              rs.sent,
		Causes:            make(map[Cause]int),
		TimeToAuthNS:      quantiles(rs.timeToAuth),
		BufferDepth:       quantiles(rs.bufferDepth),
		OverflowDrops:     rs.overflowDrops,
		Faults: faultCounts{
			Corrupted:      rs.corrupted,
			Truncated:      rs.truncated,
			ForgedInjected: rs.forgedInjected,
			ForgedRejected: rs.forgedRejected,
		},
		Diagnoses: diagnoses,
	}
	if opts.Graph != nil {
		rep.OverheadHashesPerPacket = opts.Graph.AvgHashesPerPacket()
	}

	cuts := make(map[uint32]int)
	for _, d := range diagnoses {
		rep.Causes[d.Cause]++
		for _, c := range d.Culprits {
			cuts[c]++
		}
	}
	rep.Unauthenticated = len(diagnoses)
	for c := range cuts {
		rep.TopCulprits = append(rep.TopCulprits, culpritCount{Index: c, Count: cuts[c]})
	}
	sort.Slice(rep.TopCulprits, func(i, j int) bool {
		a, b := rep.TopCulprits[i], rep.TopCulprits[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return a.Index < b.Index
	})
	if len(rep.TopCulprits) > topCulpritsLimit {
		rep.TopCulprits = rep.TopCulprits[:topCulpritsLimit]
	}

	for _, idx := range opts.scope(rs) {
		ps := positionStat{Index: idx}
		for _, recv := range rs.receivers {
			st := rs.pkts[recv][idx]
			if st == nil {
				continue
			}
			if st.deliveredGenuine {
				ps.Received++
				rep.Delivered++
			}
			if st.authenticated {
				ps.Authenticated++
				rep.Authenticated++
			}
		}
		if ps.Received > 0 {
			ps.AuthRatio = float64(ps.Authenticated) / float64(ps.Received)
		}
		rep.ByPosition = append(rep.ByPosition, ps)
	}
	return rep, nil
}

// WriteJSON renders the report as indented, deterministic JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders a human-readable run summary.
func (r *Report) WriteText(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.printf("run report: scheme=%s wire=%d receivers=%d\n", orDash(r.Scheme), r.WireCount, r.Receivers)
	if r.SkippedTraceLines > 0 {
		bw.printf("WARNING: %d undecodable trace lines skipped\n", r.SkippedTraceLines)
	}
	bw.printf("packets: sent=%d delivered=%d authenticated=%d unauthenticated=%d\n",
		r.Sent, r.Delivered, r.Authenticated, r.Unauthenticated)
	bw.printf("\nroot causes:\n")
	for _, c := range causeOrder {
		if n := r.Causes[c]; n > 0 {
			bw.printf("  %-26s %d\n", c, n)
		}
	}
	if r.Unauthenticated == 0 {
		bw.printf("  (none: every received packet authenticated)\n")
	}
	if len(r.TopCulprits) > 0 {
		bw.printf("\ntop culprits (lost packets cutting hash paths):\n")
		for _, c := range r.TopCulprits {
			bw.printf("  packet %-5d blamed %d times\n", c.Index, c.Count)
		}
	}
	bw.printf("\ntime-to-auth: n=%d mean=%.0fns p50=%.0f p90=%.0f p99=%.0f max=%d\n",
		r.TimeToAuthNS.Count, r.TimeToAuthNS.Mean, r.TimeToAuthNS.P50,
		r.TimeToAuthNS.P90, r.TimeToAuthNS.P99, r.TimeToAuthNS.Max)
	bw.printf("buffer depth: n=%d mean=%.1f p50=%.0f p90=%.0f p99=%.0f max=%d overflow_drops=%d\n",
		r.BufferDepth.Count, r.BufferDepth.Mean, r.BufferDepth.P50,
		r.BufferDepth.P90, r.BufferDepth.P99, r.BufferDepth.Max, r.OverflowDrops)
	if r.OverheadHashesPerPacket > 0 {
		bw.printf("overhead: %.2f hashes/packet\n", r.OverheadHashesPerPacket)
	}
	if r.Faults != (faultCounts{}) {
		bw.printf("faults: corrupted=%d truncated=%d forged_injected=%d forged_rejected=%d\n",
			r.Faults.Corrupted, r.Faults.Truncated, r.Faults.ForgedInjected, r.Faults.ForgedRejected)
	}
	if len(r.ByPosition) > 0 {
		bw.printf("\nauth probability by position (index: authed/received):\n")
		for _, p := range r.ByPosition {
			bw.printf("  %4d: %d/%d (%.3f)\n", p.Index, p.Authenticated, p.Received, p.AuthRatio)
		}
	}
	return bw.err
}

// WriteMarkdown renders the report for inclusion in docs or PRs.
func (r *Report) WriteMarkdown(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.printf("# Run report — %s\n\n", orDash(r.Scheme))
	bw.printf("| | |\n|---|---|\n")
	bw.printf("| Wire packets | %d |\n", r.WireCount)
	bw.printf("| Receivers | %d |\n", r.Receivers)
	bw.printf("| Sent | %d |\n", r.Sent)
	bw.printf("| Delivered | %d |\n", r.Delivered)
	bw.printf("| Authenticated | %d |\n", r.Authenticated)
	bw.printf("| Unauthenticated | %d |\n", r.Unauthenticated)
	if r.SkippedTraceLines > 0 {
		bw.printf("| Skipped trace lines | %d |\n", r.SkippedTraceLines)
	}
	if r.OverheadHashesPerPacket > 0 {
		bw.printf("| Overhead (hashes/packet) | %.2f |\n", r.OverheadHashesPerPacket)
	}
	bw.printf("\n## Root causes\n\n| Cause | Count |\n|---|---|\n")
	for _, c := range causeOrder {
		if n := r.Causes[c]; n > 0 {
			bw.printf("| %s | %d |\n", c, n)
		}
	}
	if r.Unauthenticated == 0 {
		bw.printf("| (none) | 0 |\n")
	}
	if len(r.TopCulprits) > 0 {
		bw.printf("\n## Top culprits\n\n| Lost packet | Cut diagnoses blaming it |\n|---|---|\n")
		for _, c := range r.TopCulprits {
			bw.printf("| %d | %d |\n", c.Index, c.Count)
		}
	}
	bw.printf("\n## Latency and buffering\n\n")
	bw.printf("- time-to-auth: n=%d mean=%.0fns p50=%.0f p90=%.0f p99=%.0f max=%d\n",
		r.TimeToAuthNS.Count, r.TimeToAuthNS.Mean, r.TimeToAuthNS.P50,
		r.TimeToAuthNS.P90, r.TimeToAuthNS.P99, r.TimeToAuthNS.Max)
	bw.printf("- buffer depth: n=%d mean=%.1f p50=%.0f p90=%.0f p99=%.0f max=%d (overflow drops: %d)\n",
		r.BufferDepth.Count, r.BufferDepth.Mean, r.BufferDepth.P50,
		r.BufferDepth.P90, r.BufferDepth.P99, r.BufferDepth.Max, r.OverflowDrops)
	if r.Faults != (faultCounts{}) {
		bw.printf("- faults: corrupted=%d truncated=%d forged_injected=%d forged_rejected=%d\n",
			r.Faults.Corrupted, r.Faults.Truncated, r.Faults.ForgedInjected, r.Faults.ForgedRejected)
	}
	return bw.err
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// Diff compares two reports field by field and returns one line per
// difference, in a fixed order. Identical reports (e.g. two runs of the
// same seed) diff to an empty slice.
func Diff(a, b *Report) []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	if a.Scheme != b.Scheme {
		add("scheme: %q vs %q", a.Scheme, b.Scheme)
	}
	if a.WireCount != b.WireCount {
		add("wire_count: %d vs %d", a.WireCount, b.WireCount)
	}
	if a.Receivers != b.Receivers {
		add("receivers: %d vs %d", a.Receivers, b.Receivers)
	}
	if a.RootIndex != b.RootIndex {
		add("root_index: %d vs %d", a.RootIndex, b.RootIndex)
	}
	if a.Sent != b.Sent {
		add("sent: %d vs %d", a.Sent, b.Sent)
	}
	if a.Delivered != b.Delivered {
		add("delivered: %d vs %d", a.Delivered, b.Delivered)
	}
	if a.Authenticated != b.Authenticated {
		add("authenticated: %d vs %d", a.Authenticated, b.Authenticated)
	}
	if a.Unauthenticated != b.Unauthenticated {
		add("unauthenticated: %d vs %d", a.Unauthenticated, b.Unauthenticated)
	}
	for _, c := range causeOrder {
		if a.Causes[c] != b.Causes[c] {
			add("cause %s: %d vs %d", c, a.Causes[c], b.Causes[c])
		}
	}
	if a.TimeToAuthNS != b.TimeToAuthNS {
		add("time_to_auth_ns: %+v vs %+v", a.TimeToAuthNS, b.TimeToAuthNS)
	}
	if a.BufferDepth != b.BufferDepth {
		add("buffer_depth: %+v vs %+v", a.BufferDepth, b.BufferDepth)
	}
	if a.OverflowDrops != b.OverflowDrops {
		add("overflow_drops: %d vs %d", a.OverflowDrops, b.OverflowDrops)
	}
	if a.Faults != b.Faults {
		add("faults: %+v vs %+v", a.Faults, b.Faults)
	}
	// Per-position stats: align by index.
	bPos := make(map[uint32]positionStat, len(b.ByPosition))
	for _, p := range b.ByPosition {
		bPos[p.Index] = p
	}
	seen := make(map[uint32]bool, len(a.ByPosition))
	for _, pa := range a.ByPosition {
		seen[pa.Index] = true
		pb, ok := bPos[pa.Index]
		if !ok {
			add("position %d: present vs absent", pa.Index)
			continue
		}
		if pa != pb {
			add("position %d: %d/%d vs %d/%d", pa.Index,
				pa.Authenticated, pa.Received, pb.Authenticated, pb.Received)
		}
	}
	for _, pb := range b.ByPosition {
		if !seen[pb.Index] {
			add("position %d: absent vs present", pb.Index)
		}
	}
	// Per-packet diagnoses: both sides are sorted by (receiver, index).
	diagKey := func(d packetDiagnosis) string {
		return fmt.Sprintf("r%d/i%d", d.Receiver, d.Index)
	}
	bd := make(map[string]packetDiagnosis, len(b.Diagnoses))
	for _, d := range b.Diagnoses {
		bd[diagKey(d)] = d
	}
	seenD := make(map[string]bool, len(a.Diagnoses))
	for _, da := range a.Diagnoses {
		k := diagKey(da)
		seenD[k] = true
		db, ok := bd[k]
		if !ok {
			add("diagnosis %s: %s vs authenticated", k, da.Cause)
			continue
		}
		if da.Cause != db.Cause || !equalU32(da.Culprits, db.Culprits) {
			add("diagnosis %s: %s%v vs %s%v", k, da.Cause, da.Culprits, db.Cause, db.Culprits)
		}
	}
	for _, db := range b.Diagnoses {
		if !seenD[diagKey(db)] {
			add("diagnosis %s: authenticated vs %s", diagKey(db), db.Cause)
		}
	}
	return out
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
