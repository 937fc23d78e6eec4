// Command mclab orchestrates experiment sweeps and renders the regression
// dashboard (ROADMAP item 5). A declarative JSON scenario config names the
// cross product schemes × loss models × block sizes × scales; each cell
// runs through the analytic, Monte-Carlo, netsim and (optionally) serving
// paths, and every artifact a run writes is byte-identical at any -workers
// setting.
//
// Usage:
//
//	mclab run examples/lab/basic.json           # execute a sweep
//	mclab render                                # join runs into a dashboard
//	mclab check                                 # evaluate regression gates
//
// run writes a timestamped result directory under -out (config echo,
// per-cell q_min across layers, obs metrics snapshots, diagnose reports).
// render joins every run under -out into one markdown+HTML dashboard.
// check evaluates the committed baselines (conformance bound tables plus
// the serving and overlay floors) against the newest run and exits
// non-zero on any violation.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"mcauth/internal/cli"
	"mcauth/internal/lab"
	"mcauth/internal/obs"
)

const usage = `usage:
  mclab run <config.json> [-out DIR] [-workers N] [-stamp STAMP]
  mclab render [-out DIR] [-md FILE] [-html FILE]
  mclab check [-out DIR] [-baselines FILE]
`

func main() {
	if len(os.Args) < 2 {
		fmt.Fprint(os.Stderr, usage)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:], os.Stdout)
	case "render":
		err = cmdRender(os.Args[2:], os.Stdout)
	case "check":
		err = cmdCheck(os.Args[2:], os.Stdout, os.Stderr)
	case "-h", "-help", "--help", "help":
		fmt.Print(usage)
		return
	default:
		fmt.Fprintf(os.Stderr, "mclab: unknown command %q\n%s", os.Args[1], usage)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mclab:", err)
		os.Exit(1)
	}
}

func cmdRun(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mclab run", flag.ContinueOnError)
	outDir := fs.String("out", "lab-results", "result directory root")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "cells evaluated concurrently (any value yields byte-identical artifacts)")
	stamp := fs.String("stamp", "", "fixed run stamp instead of UTC now (for reproducible directory names)")
	// Accept `mclab run config.json -workers 4` as well as flags-first:
	// stdlib flag parsing stops at the first positional, so lift a leading
	// config path out before parsing.
	var cfgPath string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cfgPath, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case cfgPath == "" && fs.NArg() == 1:
		cfgPath = fs.Arg(0)
	case cfgPath != "" && fs.NArg() == 0:
	default:
		return fmt.Errorf("run needs exactly one config file")
	}
	cfg, err := lab.ReadConfig(cfgPath)
	if err != nil {
		return err
	}
	run, dir, err := lab.Run(cfg, *workers, *outDir, *stamp)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "mclab: run %s: %d cells -> %s\n", run.RunID(), len(run.Cells), dir)
	return nil
}

func gatherInput(outDir string) (lab.DashboardInput, error) {
	runs, err := lab.LoadRuns(outDir)
	if err != nil {
		return lab.DashboardInput{}, err
	}
	in := lab.DashboardInput{Runs: runs, ServerMetrics: make(map[string]map[string]obs.Snapshot)}
	for _, run := range runs {
		sm, err := lab.LoadServerMetrics(filepath.Join(outDir, run.RunID()))
		if err != nil {
			return lab.DashboardInput{}, err
		}
		if sm != nil {
			in.ServerMetrics[run.RunID()] = sm
		}
	}
	return in, nil
}

func cmdRender(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mclab render", flag.ContinueOnError)
	outDir := fs.String("out", "lab-results", "result directory root to join")
	mdPath := fs.String("md", "lab-results/dashboard.md", "markdown dashboard output")
	htmlPath := fs.String("html", "lab-results/dashboard.html", "HTML dashboard output (empty to skip)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("render takes no positional arguments")
	}
	in, err := gatherInput(*outDir)
	if err != nil {
		return err
	}
	var md strings.Builder
	if err := lab.RenderMarkdown(&md, in); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(*mdPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(*mdPath, []byte(md.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "mclab: dashboard: %s (%d runs)\n", *mdPath, len(in.Runs))
	if *htmlPath != "" {
		if err := cli.WriteFile(*htmlPath, func(w io.Writer) error { return lab.RenderHTML(w, md.String()) }); err != nil {
			return err
		}
		fmt.Fprintf(out, "mclab: dashboard: %s\n", *htmlPath)
	}
	return nil
}

func cmdCheck(args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("mclab check", flag.ContinueOnError)
	outDir := fs.String("out", "lab-results", "result directory root")
	baselinesPath := fs.String("baselines", "lab/baselines.json", "committed gate file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("check takes no positional arguments")
	}
	baselines, err := lab.ReadBaselines(*baselinesPath)
	if err != nil {
		return err
	}
	runs, err := lab.LoadRuns(*outDir)
	if err != nil {
		return err
	}

	var violations []error
	if len(runs) == 0 {
		fmt.Fprintf(out, "mclab: check: no runs under %s; q_min gates not evaluated\n", *outDir)
	} else {
		latest := runs[len(runs)-1]
		violations = baselines.CheckRun(latest)
		fmt.Fprintf(out, "mclab: check: run %s: %d cells, %d violation(s)\n", latest.RunID(), len(latest.Cells), len(violations))
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(errOut, "mclab: VIOLATION:", v)
		}
		return fmt.Errorf("%d regression gate violation(s)", len(violations))
	}
	fmt.Fprintln(out, "mclab: check: all gates pass")
	return nil
}
