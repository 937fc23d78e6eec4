// Package cli holds what the command-line tools share: the telemetry
// outputs behind -trace, -metrics, -cpuprofile, -memprofile and -pprof,
// and the scheme flags that select a catalogue row.
//
// A tool declares its output flags with Config.Flags, calls Open before
// any work runs, so an unwritable path fails up front, and defers Close,
// so a failed run still finishes its trace, metrics and profiles.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"sync"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/obs"
)

// Config is what a tool's output flags asked for, plus how the tool
// serves them. Empty fields are off.
type Config struct {
	// Trace is the JSONL lifecycle trace file (-trace); Keep is how many
	// spans the tracer also holds for the tool to read back (obs.KeepAll
	// for all of them), with or without a file.
	Trace string
	Keep  int
	// Metrics is "-" for a text table on Stdout at Close, else a JSON file
	// (-metrics). With MetricsInterval > 0 the file is a JSONL series of
	// timestamped snapshots at that cadence plus one final line.
	Metrics         string
	MetricsInterval time.Duration
	// CPUProfile and MemProfile are profile files (-cpuprofile,
	// -memprofile); the heap profile is taken at Close.
	CPUProfile, MemProfile string
	// Pprof is the listen address of the net/http/pprof handlers, which
	// also serve /metrics and /statusz (-pprof).
	Pprof string

	// Registry is the tool's own registry, for a tool whose summaries read
	// its instruments; nil gets a fresh one when -metrics or -pprof asks.
	Registry *obs.Registry
	// Status heads /statusz with the run's configuration.
	Status func(io.Writer)
	// Routes adds the tool's own endpoints to the -pprof mux and names
	// them for the announcement.
	Routes func(*http.ServeMux) []string
	// Stdout receives the -metrics - table (nil = os.Stdout).
	Stdout io.Writer
}

// Help is a tool's wording for the output flags it accepts. A flag whose
// text is empty is not declared. Metrics names what the tool measures;
// the flag's text goes on to say how "-" and a file differ. Profiles
// declares -cpuprofile and -memprofile, whose wording every tool shares.
type Help struct {
	Trace, Metrics, Pprof string
	Profiles              bool
}

// Flags declares on fs the output flags h words, writing into c.
func (c *Config) Flags(fs *flag.FlagSet, h Help) {
	declare := func(p *string, name, usage string) {
		if usage != "" {
			fs.StringVar(p, name, "", usage)
		}
	}
	declare(&c.Trace, "trace", h.Trace)
	if h.Metrics != "" {
		declare(&c.Metrics, "metrics", h.Metrics+": '-' for a text table on stdout, else JSON to this file")
	}
	declare(&c.Pprof, "pprof", h.Pprof)
	if h.Profiles {
		declare(&c.CPUProfile, "cpuprofile", "write a CPU profile to this file")
		declare(&c.MemProfile, "memprofile", "write a heap profile to this file at exit")
	}
}

// Outputs is an open set of telemetry outputs. Tracer and Registry are
// what the run records into; either is nil when nothing asked for it.
type Outputs struct {
	Tracer   *obs.SpanSink
	Registry *obs.Registry

	cfg          Config
	metricsFile  *os.File
	instrumented bool
	exposer      *obs.Exposer
	stopProfiles func() error
	tickerStop   chan struct{}
	tickerDone   chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// Open creates every requested output, instruments crypto when the
// metrics are exported, and starts the -pprof listener. On error nothing
// it started is left running.
func Open(cfg Config) (*Outputs, error) {
	o := &Outputs{cfg: cfg, Registry: cfg.Registry}
	var ln net.Listener
	fail := func(err error) (*Outputs, error) {
		o.Tracer.Close()
		if o.metricsFile != nil {
			o.metricsFile.Close()
		}
		if ln != nil {
			ln.Close()
		}
		return nil, err
	}
	var err error
	if o.Tracer, err = obs.OpenTrace(cfg.Trace, cfg.Keep); err != nil {
		return nil, err
	}
	if cfg.Metrics != "" && cfg.Metrics != "-" {
		if o.metricsFile, err = os.Create(cfg.Metrics); err != nil {
			return fail(fmt.Errorf("metrics output unwritable: %w", err))
		}
	}
	if cfg.Pprof != "" {
		if ln, err = net.Listen("tcp", cfg.Pprof); err != nil {
			return fail(fmt.Errorf("pprof listen %s: %w", cfg.Pprof, err))
		}
	}
	// Profiling starts last: it is the one step a failure would otherwise
	// leave running for the rest of the process.
	if o.stopProfiles, err = obs.StartProfiles(cfg.CPUProfile, cfg.MemProfile); err != nil {
		return fail(err)
	}

	if cfg.Metrics != "" || cfg.Pprof != "" {
		if o.Registry == nil {
			o.Registry = obs.NewRegistry()
		}
		crypto.Instrument(o.Registry)
		o.instrumented = true
	}
	if ln != nil {
		o.serve(ln)
	}
	if cfg.MetricsInterval > 0 && o.metricsFile != nil {
		o.tickerStop = make(chan struct{})
		o.tickerDone = make(chan struct{})
		go o.tick()
	}
	return o, nil
}

// serve answers the pprof handlers, /metrics, /statusz and the tool's
// routes on ln for the rest of the process: the final snapshot stays
// readable after Close.
func (o *Outputs) serve(ln net.Listener) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	o.exposer = obs.NewExposer(o.Registry, obs.DefaultExposeInterval)
	if o.cfg.Status != nil {
		o.exposer.SetStatus(o.cfg.Status)
	}
	o.exposer.Register(mux)
	endpoints := []string{"/metrics", "/statusz"}
	if o.cfg.Routes != nil {
		endpoints = append(endpoints, o.cfg.Routes(mux)...)
	}
	fmt.Fprintf(os.Stderr, "pprof: serving on http://%s/debug/pprof/ (+%s)\n", ln.Addr(), strings.Join(endpoints, ", "))
	go func() { _ = http.Serve(ln, mux) }()
}

// tick owns the metrics file between Open and Close, appending one
// timestamped snapshot per interval; Close stops it and writes the last.
func (o *Outputs) tick() {
	defer close(o.tickerDone)
	t := time.NewTicker(o.cfg.MetricsInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if o.writeLine() != nil {
				return // file gone; the final write reports it
			}
		case <-o.tickerStop:
			return
		}
	}
}

func (o *Outputs) writeLine() error {
	ts := obs.TimedSnapshot{AtUnixNS: time.Now().UnixNano(), Metrics: o.Registry.Snapshot()}
	return ts.WriteJSONLine(o.metricsFile)
}

// Close finishes every output: it uninstruments crypto, flushes the
// trace, writes the metrics and stops the profiles, reporting every
// failure. Only the first call acts, so a tool can both defer it for its
// failure paths and call it where its output order needs the table.
func (o *Outputs) Close() error {
	o.closeOnce.Do(func() { o.closeErr = o.close() })
	return o.closeErr
}

func (o *Outputs) close() error {
	if o.instrumented {
		crypto.Uninstrument()
	}
	if o.exposer != nil {
		o.exposer.Refresh()
		o.exposer.Close()
	}
	errs := []error{o.Tracer.Close()}
	if o.cfg.Metrics == "-" {
		errs = append(errs, o.writeTable())
	}
	if o.tickerStop != nil {
		close(o.tickerStop)
		<-o.tickerDone
	}
	if o.metricsFile != nil {
		var err error
		if o.cfg.MetricsInterval > 0 {
			err = o.writeLine()
		} else {
			err = o.Registry.Snapshot().WriteJSON(o.metricsFile)
		}
		if cerr := o.metricsFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("metrics output: %w", err))
		}
	}
	errs = append(errs, o.stopProfiles())
	return errors.Join(errs...)
}

// WriteFile creates path and fills it with write, reporting a failed
// write or close.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTable writes the -metrics - table after a blank line.
func (o *Outputs) writeTable() error {
	w := o.cfg.Stdout
	if w == nil {
		w = os.Stdout
	}
	fmt.Fprintln(w)
	if err := o.Registry.Snapshot().WriteText(w); err != nil {
		return fmt.Errorf("metrics output: %w", err)
	}
	return nil
}
