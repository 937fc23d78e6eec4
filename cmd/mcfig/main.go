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

	"mcauth/internal/crypto"
	"mcauth/internal/experiments"
	"mcauth/internal/obs"
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
		figID      = fs.String("fig", "", "experiment ID to run (see -list)")
		listAll    = fs.Bool("list", false, "list available experiments")
		runAll     = fs.Bool("all", false, "run every experiment")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file at exit")
		workers    = fs.Int("workers", 0, "worker pool size for sweep evaluation (0 = GOMAXPROCS); results are identical for any setting")
		trace      = fs.String("trace", "", "write a JSONL packet-lifecycle trace of every simulation run to this file")
		metrics    = fs.String("metrics", "", "write figure-wide metrics: '-' for a text table on stdout, else JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("-workers %d must be >= 0", *workers)
	}
	experiments.Workers = *workers
	var metricsFile *os.File
	tracer, err := obs.OpenTrace(*trace, 0)
	if err != nil {
		return err
	}
	experiments.Tracer = tracer
	defer func() { experiments.Tracer = nil }()
	if *metrics != "" {
		if *metrics != "-" {
			f, err := os.Create(*metrics)
			if err != nil {
				return fmt.Errorf("metrics output unwritable: %w", err)
			}
			metricsFile = f
		}
		experiments.Metrics = obs.NewRegistry()
		crypto.Instrument(experiments.Metrics)
		defer func() {
			crypto.Uninstrument()
			experiments.Metrics = nil
		}()
	}
	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		return err
	}
	if err := dispatch(*figID, *listAll, *runAll, stdout); err != nil {
		stopProfiles()
		return err
	}
	if err := tracer.Close(); err != nil {
		return err
	}
	if reg := experiments.Metrics; reg != nil {
		snap := reg.Snapshot()
		if metricsFile != nil {
			if err := snap.WriteJSON(metricsFile); err != nil {
				metricsFile.Close()
				return fmt.Errorf("metrics output: %w", err)
			}
			if err := metricsFile.Close(); err != nil {
				return fmt.Errorf("metrics output: %w", err)
			}
		} else {
			fmt.Fprintln(stdout)
			if err := snap.WriteText(stdout); err != nil {
				return err
			}
		}
	}
	return stopProfiles()
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
