// Command mcreport turns a saved packet-lifecycle trace (mcsim -trace, or
// any internal/obs JSONL stream) into a root-cause diagnosis report, offline.
// It can also diff the reports of two traces — two identical-seed runs
// produce byte-identical reports, so the diff of a healthy rerun is empty.
//
// Usage:
//
//	mcreport run.jsonl                         # text report on stdout
//	mcreport -json rep.json -md rep.md run.jsonl
//	mcreport -diff a.jsonl b.jsonl             # empty output = identical
//
// The scheme, wire count and root index come from the trace's run_meta
// record; its scheme name rebuilds the dependence graph, so hash-path-cut
// diagnoses carry their frontier-cut culprit sets. A trace naming no
// catalogue scheme still has every failure classified, without culprits.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"mcauth/internal/catalog"
	"mcauth/internal/cli"
	"mcauth/internal/crypto"
	"mcauth/internal/diagnose"
	"mcauth/internal/obs"
)

type options struct {
	jsonOut string
	mdOut   string
	diff    bool
	flight  string
	series  string
	args    []string
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mcreport:", err)
		os.Exit(1)
	}
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("mcreport", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.jsonOut, "json", "", "also write the report as JSON to this file")
	fs.StringVar(&o.mdOut, "md", "", "also write the report as markdown to this file")
	fs.BoolVar(&o.diff, "diff", false, "diff the reports of two traces instead of printing one")
	fs.StringVar(&o.flight, "flight", "", "render an mcserved flight-recorder dump (JSONL) as a human-readable post-mortem")
	fs.StringVar(&o.series, "series", "", "summarize an mcserved -metrics-interval JSONL series (snapshot count, time span, skipped lines)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	o.args = fs.Args()
	return o, nil
}

// diagnoseOptions is the graph-side half of the trace→graph join, rebuilt
// from the scheme name on the trace's run_meta record. A name that does
// not parse leaves the join graphless.
func diagnoseOptions(spans []obs.Span) (diagnose.Options, error) {
	i := slices.IndexFunc(spans, func(s obs.Span) bool { return s.Kind == obs.SpanRunMeta })
	if i < 0 {
		return diagnose.Options{}, nil
	}
	spec, err := catalog.ParseName(spans[i].Scheme)
	if err != nil {
		return diagnose.Options{}, nil
	}
	// The join reads only wire indices and the dependence graph, so the
	// TESLA schedule (mcsim's default spacing) and key seed are arbitrary.
	spec.Interval, spec.Seed = 10*time.Millisecond, []byte("mcreport")
	entry, err := catalog.Build(spec, crypto.NewSignerFromString("mcreport"))
	if err != nil {
		return diagnose.Options{}, err
	}
	return entry.DiagnoseOptions()
}

func loadReport(path string) (*diagnose.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	spans, skipped, err := obs.ReadSpans(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	opts, err := diagnoseOptions(spans)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rep, err := diagnose.BuildReport(spans, skipped, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func run(args []string) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	if o.flight != "" {
		return runFlight(o.flight)
	}
	if o.series != "" {
		return runSeries(o.series)
	}
	if o.diff {
		if len(o.args) != 2 {
			return fmt.Errorf("-diff needs exactly two trace files, got %d", len(o.args))
		}
		a, err := loadReport(o.args[0])
		if err != nil {
			return err
		}
		b, err := loadReport(o.args[1])
		if err != nil {
			return err
		}
		lines := diagnose.Diff(a, b)
		for _, l := range lines {
			fmt.Println(l)
		}
		if len(lines) > 0 {
			return fmt.Errorf("%d difference(s)", len(lines))
		}
		return nil
	}
	if len(o.args) != 1 {
		return fmt.Errorf("need exactly one trace file, got %d", len(o.args))
	}
	rep, err := loadReport(o.args[0])
	if err != nil {
		return err
	}
	if o.jsonOut != "" {
		if err := cli.WriteFile(o.jsonOut, rep.WriteJSON); err != nil {
			return err
		}
	}
	if o.mdOut != "" {
		if err := cli.WriteFile(o.mdOut, rep.WriteMarkdown); err != nil {
			return err
		}
	}
	return rep.WriteText(os.Stdout)
}
