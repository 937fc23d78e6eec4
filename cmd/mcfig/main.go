// Command mcfig regenerates the paper's figures and this repository's
// extension experiments as text tables.
//
// Usage:
//
//	mcfig -list
//	mcfig -fig fig8
//	mcfig -all
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mcauth/internal/cli"
	"mcauth/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mcfig:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mcfig", flag.ContinueOnError)
	var (
		figID   = fs.String("fig", "", "experiment ID to run (see -list)")
		listAll = fs.Bool("list", false, "list available experiments")
		runAll  = fs.Bool("all", false, "run every experiment")
		workers = fs.Int("workers", 0, "worker pool size for sweep evaluation (0 = GOMAXPROCS); results are identical for any setting")
		outCfg  = cli.Config{Stdout: stdout}
	)
	outCfg.Flags(fs, cli.Help{
		Trace:    "write a JSONL packet-lifecycle trace of every simulation run to this file",
		Metrics:  "write figure-wide metrics",
		Profiles: true,
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("-workers %d must be >= 0", *workers)
	}
	experiments.Workers = *workers
	out, err := cli.Open(outCfg)
	if err != nil {
		return err
	}
	defer out.Close() // a failed run still finishes its outputs
	experiments.Tracer, experiments.Metrics = out.Tracer, out.Registry
	defer func() { experiments.Tracer, experiments.Metrics = nil, nil }()
	if err := dispatch(*figID, *listAll, *runAll, stdout); err != nil {
		return err
	}
	return out.Close()
}

func dispatch(figID string, listAll, runAll bool, out io.Writer) error {
	switch {
	case listAll:
		for _, e := range experiments.All() {
			fmt.Fprintf(out, "%-10s %s\n", e.ID, e.Title)
		}
		return nil
	case runAll:
		return experiments.RunAll(out)
	case figID != "":
		e, ok := experiments.Get(figID)
		if !ok {
			return fmt.Errorf("unknown experiment %q; available: %s",
				figID, strings.Join(experiments.IDs(), ", "))
		}
		return e.Run(out)
	default:
		return errors.New("one of -fig, -all or -list is required")
	}
}
