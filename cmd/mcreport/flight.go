// Flight-recorder post-mortems and metrics-series summaries: the offline
// renderers for mcserved's -flight dumps and -metrics-interval JSONL
// series. A dump is rendered as an incident report — what triggered it,
// the fault timeline leading up to it, the per-stream SLO budget state at
// the moment of death, and the causally grouped block lifecycles the span
// ring still held (sender push through receiver authenticate/reject).
package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"mcauth/internal/obs"
)

// spanKindOrder ranks lifecycle stages in pipeline order so a trace's
// spans render sender-to-receiver even when timestamps tie.
var spanKindOrder = map[obs.SpanKind]int{
	obs.SpanPush:            0,
	obs.SpanEmit:            1,
	obs.SpanSignAttach:      2,
	obs.SpanMuxWrite:        3,
	obs.SpanRelayIngest:     4,
	obs.SpanDecode:          5,
	obs.SpanHashBuffered:    6,
	obs.SpanMsgBuffered:     7,
	obs.SpanOverflowDropped: 8,
	obs.SpanDeferredPark:    9,
	obs.SpanSigResolve:      10,
	obs.SpanAuthenticate:    11,
	obs.SpanReject:          12,
	obs.SpanUnsafe:          13,
}

// traceGroup is one block's causally linked spans.
type traceGroup struct {
	trace   uint64
	stream  uint64
	block   uint64
	firstNS int64
	spans   []obs.Span
}

// complete reports whether the group covers the full path the acceptance
// bar cares about: pushed by the sender and authenticated by a receiver.
func (g *traceGroup) complete() bool {
	var pushed, authed bool
	for _, s := range g.spans {
		switch s.Kind {
		case obs.SpanPush:
			pushed = true
		case obs.SpanAuthenticate:
			authed = true
		}
	}
	return pushed && authed
}

// groupTraces buckets spans by trace ID and orders each group in
// pipeline-then-time order, groups themselves by first-span time.
func groupTraces(spans []obs.Span) []*traceGroup {
	byTrace := make(map[uint64]*traceGroup)
	var order []*traceGroup
	for _, s := range spans {
		g, ok := byTrace[s.Trace]
		if !ok {
			g = &traceGroup{trace: s.Trace, stream: s.Stream, block: s.Block, firstNS: s.TimeNS}
			byTrace[s.Trace] = g
			order = append(order, g)
		}
		if s.TimeNS != 0 && (g.firstNS == 0 || s.TimeNS < g.firstNS) {
			g.firstNS = s.TimeNS
		}
		g.spans = append(g.spans, s)
	}
	for _, g := range order {
		sort.SliceStable(g.spans, func(i, j int) bool {
			a, b := g.spans[i], g.spans[j]
			if a.TimeNS != b.TimeNS {
				return a.TimeNS < b.TimeNS
			}
			if spanKindOrder[a.Kind] != spanKindOrder[b.Kind] {
				return spanKindOrder[a.Kind] < spanKindOrder[b.Kind]
			}
			return a.Index < b.Index
		})
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].firstNS != order[j].firstNS {
			return order[i].firstNS < order[j].firstNS
		}
		return order[i].trace < order[j].trace
	})
	return order
}

// maxRenderedTraces bounds the lifecycle section; the freshest traces are
// the ones that explain the incident.
const maxRenderedTraces = 12

// writeFlightReport renders one parsed dump as a human-readable
// post-mortem.
func writeFlightReport(w io.Writer, d *obs.FlightDump, skipped int) error {
	at := time.Unix(0, d.Meta.AtUnixNS).UTC()
	fmt.Fprintf(w, "flight recorder post-mortem\n")
	fmt.Fprintf(w, "===========================\n")
	fmt.Fprintf(w, "reason    %s\n", d.Meta.Reason)
	fmt.Fprintf(w, "dumped    %s\n", at.Format(time.RFC3339Nano))
	fmt.Fprintf(w, "spans     %d buffered (%d recorded over the ring's life)\n", d.Meta.Spans, d.Meta.SpanTotal)
	fmt.Fprintf(w, "faults    %d, metric snapshots %d\n", d.Meta.Faults, d.Meta.Snapshots)
	if skipped > 0 {
		fmt.Fprintf(w, "skipped   %d damaged/foreign line(s) in the dump\n", skipped)
	}

	if len(d.Faults) > 0 {
		fmt.Fprintf(w, "\nfault timeline\n--------------\n")
		for _, f := range d.Faults {
			t := time.Unix(0, f.TimeNS).UTC().Format("15:04:05.000")
			if f.Detail != "" {
				fmt.Fprintf(w, "%s  %-10s %s\n", t, f.Kind, f.Detail)
			} else {
				fmt.Fprintf(w, "%s  %s\n", t, f.Kind)
			}
		}
	}

	if d.SLO != nil && len(d.SLO.Streams) > 0 {
		fmt.Fprintf(w, "\nslo budgets at dump time (window %v, state %s)\n", time.Duration(d.SLO.WindowNS), d.SLO.State)
		fmt.Fprintf(w, "----------------------------------------------\n")
		fmt.Fprintf(w, "%-8s %-9s %-8s %-10s %-12s %s\n", "stream", "attempts", "auth", "frac", "tta_p99", "objectives")
		for _, s := range d.SLO.Streams {
			fmt.Fprintf(w, "%-8d %-9d %-8d %-10.3f %-12v ",
				s.Stream, s.Attempts, s.Authenticated, s.AuthFraction,
				time.Duration(s.TTAP99NS).Round(time.Microsecond))
			for i, o := range s.Objectives {
				if i > 0 {
					fmt.Fprintf(w, ", ")
				}
				fmt.Fprintf(w, "%s %s (burn %.2f)", o.Name, o.State, o.BurnRate)
			}
			fmt.Fprintln(w)
		}
	}

	groups := groupTraces(d.Spans)
	complete := 0
	for _, g := range groups {
		if g.complete() {
			complete++
		}
	}
	fmt.Fprintf(w, "\nblock lifecycles\n----------------\n")
	fmt.Fprintf(w, "traces: %d (complete sender->authenticate: %d)\n", len(groups), complete)
	shown := groups
	if len(shown) > maxRenderedTraces {
		// The freshest traces explain the incident; drop the oldest.
		fmt.Fprintf(w, "showing newest %d of %d traces\n", maxRenderedTraces, len(groups))
		shown = shown[len(shown)-maxRenderedTraces:]
	}
	for _, g := range shown {
		fmt.Fprintf(w, "\ntrace %016x  stream %d  block %d%s\n", g.trace, g.stream, g.block,
			map[bool]string{true: "  [complete]", false: ""}[g.complete()])
		var prev int64
		for _, s := range g.spans {
			var delta string
			if prev != 0 && s.TimeNS != 0 {
				delta = fmt.Sprintf(" (+%v)", time.Duration(s.TimeNS-prev).Round(time.Microsecond))
			}
			if s.TimeNS != 0 {
				prev = s.TimeNS
			}
			fmt.Fprintf(w, "  %-14s", s.Kind)
			if s.Index != 0 {
				fmt.Fprintf(w, " idx %-4d", s.Index)
			}
			if s.DurNS != 0 {
				fmt.Fprintf(w, " dur %v", time.Duration(s.DurNS).Round(time.Microsecond))
			}
			if s.Depth != 0 {
				fmt.Fprintf(w, " depth %d", s.Depth)
			}
			if s.Reason != "" {
				fmt.Fprintf(w, " reason=%s", s.Reason)
			}
			fmt.Fprintf(w, "%s\n", delta)
		}
	}
	return nil
}

// runFlight loads a flight dump and renders the post-mortem.
func runFlight(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	d, skipped, err := obs.ReadFlightDump(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return writeFlightReport(os.Stdout, d, skipped)
}

// runSeries summarizes a -metrics-interval JSONL series: line counts,
// time span, and how many lines were damaged or foreign (surfacing the
// skipped count that ReadSnapshotLines reports).
func runSeries(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	series, skipped, err := obs.ReadSnapshotLines(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Printf("metrics series: %d snapshot(s), %d skipped line(s)\n", len(series), skipped)
	if len(series) > 0 {
		first := time.Unix(0, series[0].AtUnixNS).UTC()
		last := time.Unix(0, series[len(series)-1].AtUnixNS).UTC()
		fmt.Printf("span: %s .. %s (%v)\n",
			first.Format(time.RFC3339), last.Format(time.RFC3339),
			last.Sub(first).Round(time.Second))
		final := series[len(series)-1].Metrics
		fmt.Printf("final snapshot: %d counters, %d gauges, %d histograms\n",
			len(final.Counters), len(final.Gauges), len(final.Histograms))
	}
	if skipped > 0 {
		fmt.Printf("warning: %d line(s) could not be parsed as timed snapshots\n", skipped)
	}
	return nil
}
