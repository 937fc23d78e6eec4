package lab

import (
	"fmt"
	"html"
	"io"
	"strings"

	"mcauth/internal/obs"
)

// DashboardInput joins everything the renderer draws from: lab runs in
// chronological order and their wall-clock server snapshots (keyed run ID
// → cell ID).
type DashboardInput struct {
	Runs          []*RunResult
	ServerMetrics map[string]map[string]obs.Snapshot
}

func fq(v float64) string { return fmt.Sprintf("%.4f", v) }

func fns(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

func optQ(has bool, v float64) string {
	if !has {
		return "—"
	}
	return fq(v)
}

// RenderMarkdown writes the dashboard. Output is a pure function of the
// input (no clocks), so two renders over the same artifacts are
// byte-identical — the property the golden test and the worker-count
// identity check pin.
func RenderMarkdown(w io.Writer, in DashboardInput) error {
	var b strings.Builder
	b.WriteString("# mcauth lab dashboard\n\n")
	fmt.Fprintf(&b, "%d lab run(s).\n", len(in.Runs))

	if len(in.Runs) > 0 {
		b.WriteString("\n## Runs\n\n")
		b.WriteString("| run | cells | trials | paths |\n|---|---:|---:|---|\n")
		for _, run := range in.Runs {
			fmt.Fprintf(&b, "| %s | %d | %d | %s |\n",
				run.RunID(), len(run.Cells), run.Config.Trials, strings.Join(run.Config.Paths, ", "))
		}
	}

	for _, run := range in.Runs {
		fmt.Fprintf(&b, "\n## q_min vs overhead — %s\n\n", run.RunID())
		b.WriteString("q_min is the worst per-packet authentication probability over the block " +
			"(the paper's central quantity); overhead is hashes per packet over the dependence " +
			"graph (Equation 2) and measured wire bytes per payload.\n\n")
		b.WriteString("| cell | hashes/pkt | bytes/pkt | analytic | monte-carlo | measured |\n")
		b.WriteString("|---|---:|---:|---:|---:|---:|\n")
		for _, c := range run.Cells {
			fmt.Fprintf(&b, "| %s | %.2f | %.1f | %s | %s | %s |\n",
				c.ID, c.OverheadHashesPerPacket, c.OverheadBytesPerPacket,
				optQ(c.HasAnalytic, c.Analytic),
				optQ(c.HasMonteCarlo, c.MonteCarlo),
				optQ(c.HasMeasured, c.Measured))
		}

		if anyMeasured(run) {
			fmt.Fprintf(&b, "\n### Time to authentication — %s\n\n", run.RunID())
			b.WriteString("Simulated-clock latency from packet arrival to successful " +
				"authentication, aggregated over all receivers.\n\n")
			b.WriteString("| cell | auth'd | p50 | p95 | p99 | max |\n|---|---:|---:|---:|---:|---:|\n")
			for _, c := range run.Cells {
				if !c.HasMeasured {
					continue
				}
				s := c.TimeToAuthNS
				// Per-packet schemes (authtree, signeach) verify at ingest
				// and record no latency samples.
				p50, p95, p99, max := "—", "—", "—", "—"
				if s.Count > 0 {
					p50, p95, p99, max = fns(s.P50), fns(s.P95), fns(s.P99), fns(float64(s.Max))
				}
				fmt.Fprintf(&b, "| %s | %d | %s | %s | %s | %s |\n",
					c.ID, c.Authenticated, p50, p95, p99, max)
			}
		}

		if run.Config.SLO != nil {
			fmt.Fprintf(&b, "\n### SLO objectives — %s\n\n", run.RunID())
			b.WriteString("Per-cell service objectives from the sweep config; `mclab check` " +
				"fails the run on any missed objective.\n\n")
			b.WriteString("| cell | objective | target | actual | state |\n|---|---|---:|---:|---|\n")
			evaluated := false
			for _, c := range run.Cells {
				for _, ob := range run.Config.SLO.evaluateCell(c) {
					evaluated = true
					target, actual := fq(ob.Target), fq(ob.Actual)
					if ob.Name == "tta_p99" {
						target, actual = fns(ob.Target), fns(ob.Actual)
					}
					state := "ok"
					if !ob.Met {
						state = "**missed**"
					}
					fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n", c.ID, ob.Name, target, actual, state)
				}
			}
			if !evaluated {
				b.WriteString("| — | — | — | — | no cell produced a gated quantity |\n")
			}
		}

		if anyOverlay(run) {
			fmt.Fprintf(&b, "\n### Overlay fan-out — %s\n\n", run.RunID())
			b.WriteString("Downstream authenticated fraction through the relay tree, relays " +
				"passive vs serving signature repairs. Under the correlated lossy edge the " +
				"analytic i.i.d. bound does not apply; the gain column is what " +
				"`require_overlay_gain` gates.\n\n")
			b.WriteString("| cell | tree | edge loss | auth (off) | auth (on) | gain | upstream repairs | receiver repairs |\n")
			b.WriteString("|---|---|---|---:|---:|---:|---:|---:|\n")
			for _, c := range run.Cells {
				if c.Overlay == nil {
					continue
				}
				o := c.Overlay
				fmt.Fprintf(&b, "| %s | d=%d f=%d | %d edge(s) @ %.2f | %s | %s | %+.4f | %d | %d |\n",
					c.ID, o.Depth, o.Fanout, o.LossyEdges, o.EdgeP,
					fq(o.AuthOff), fq(o.AuthOn), o.Gain, o.UpstreamRepaired, o.ReceiverRepairs)
			}
		}

		if anyServer(run) {
			fmt.Fprintf(&b, "\n### Serving tier — %s\n\n", run.RunID())
			b.WriteString("Batch-signing counts are deterministic; root-hold latency is " +
				"wall-clock (from server_metrics.json) and varies run to run.\n\n")
			b.WriteString("| cell | published | verified | signatures | roots | amortization | hold p50 | hold p95 | hold p99 |\n")
			b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|---:|\n")
			sm := in.ServerMetrics[run.RunID()]
			for _, c := range run.Cells {
				if c.Server == nil {
					continue
				}
				s := c.Server
				hold := "— | — | —"
				if h, ok := sm[c.ID].Histograms["server.root_hold_ns"]; ok && h.Count > 0 {
					hold = fmt.Sprintf("%s | %s | %s", fns(h.P50), fns(h.P95), fns(h.P99))
				}
				fmt.Fprintf(&b, "| %s | %d | %d | %d | %d | %.1f | %s |\n",
					c.ID, s.Published, s.Verified, s.Signatures, s.SignedRoots, s.Amortization, hold)
			}
		}
	}

	_, err := io.WriteString(w, b.String())
	return err
}

func anyMeasured(run *RunResult) bool {
	for _, c := range run.Cells {
		if c.HasMeasured {
			return true
		}
	}
	return false
}

func anyOverlay(run *RunResult) bool {
	for _, c := range run.Cells {
		if c.Overlay != nil {
			return true
		}
	}
	return false
}

func anyServer(run *RunResult) bool {
	for _, c := range run.Cells {
		if c.Server != nil {
			return true
		}
	}
	return false
}

// RenderHTML wraps the markdown dashboard in a self-contained HTML page
// via the minimal converter below (headings, tables, paragraphs — exactly
// the constructs RenderMarkdown emits; no external renderer is vendored).
func RenderHTML(w io.Writer, md string) error {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n")
	b.WriteString("<title>mcauth lab dashboard</title>\n<style>\n")
	b.WriteString("body{font-family:sans-serif;max-width:72rem;margin:2rem auto;padding:0 1rem;color:#222}\n")
	b.WriteString("table{border-collapse:collapse;margin:1rem 0}\n")
	b.WriteString("th,td{border:1px solid #ccc;padding:0.3rem 0.6rem;font-size:0.9rem}\n")
	b.WriteString("th{background:#f3f3f3;text-align:left}\ntd{font-variant-numeric:tabular-nums}\n")
	b.WriteString("h1,h2,h3{margin-top:1.6rem}\n</style></head><body>\n")
	b.WriteString(markdownToHTML(md))
	b.WriteString("</body></html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// markdownToHTML converts the dashboard's markdown subset: #/##/###
// headings, GFM tables (alignment row ignored), and paragraphs. Cell text
// is HTML-escaped.
func markdownToHTML(md string) string {
	var b strings.Builder
	lines := strings.Split(md, "\n")
	inTable := false
	para := func(text string) {
		if text != "" {
			b.WriteString("<p>" + html.EscapeString(text) + "</p>\n")
		}
	}
	var pending []string
	flush := func() {
		para(strings.Join(pending, " "))
		pending = pending[:0]
	}
	closeTable := func() {
		if inTable {
			b.WriteString("</table>\n")
			inTable = false
		}
	}
	for i := 0; i < len(lines); i++ {
		line := strings.TrimRight(lines[i], " ")
		switch {
		case strings.HasPrefix(line, "|"):
			flush()
			cells := splitRow(line)
			if isAlignRow(cells) {
				continue
			}
			tag := "td"
			if !inTable {
				b.WriteString("<table>\n")
				inTable = true
				tag = "th"
			}
			b.WriteString("<tr>")
			for _, c := range cells {
				b.WriteString("<" + tag + ">" + html.EscapeString(c) + "</" + tag + ">")
			}
			b.WriteString("</tr>\n")
		case strings.HasPrefix(line, "#"):
			flush()
			closeTable()
			level := 0
			for level < len(line) && line[level] == '#' {
				level++
			}
			if level > 6 {
				level = 6
			}
			text := strings.TrimSpace(line[level:])
			fmt.Fprintf(&b, "<h%d>%s</h%d>\n", level, html.EscapeString(text), level)
		case line == "":
			flush()
			closeTable()
		default:
			closeTable()
			pending = append(pending, line)
		}
	}
	flush()
	closeTable()
	return b.String()
}

func splitRow(line string) []string {
	trimmed := strings.Trim(line, "|")
	parts := strings.Split(trimmed, "|")
	out := make([]string, len(parts))
	for i, p := range parts {
		out[i] = strings.TrimSpace(p)
	}
	return out
}

func isAlignRow(cells []string) bool {
	if len(cells) == 0 {
		return false
	}
	for _, c := range cells {
		if c == "" {
			return false
		}
		for _, r := range c {
			if r != '-' && r != ':' {
				return false
			}
		}
	}
	return true
}
