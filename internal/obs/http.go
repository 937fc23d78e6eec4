package obs

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Exposer serves a registry over HTTP for live inspection of a running
// process: /metrics renders the Prometheus text exposition and /statusz a
// human-readable run summary. A background goroutine snapshots the
// registry on a fixed cadence, so handlers serve a consistent recent view
// without taking the registry locks on every scrape, and the process's
// current state is captured even if nothing ever scrapes it.
type Exposer struct {
	reg      *Registry
	interval time.Duration
	status   func(io.Writer)

	mu    sync.RWMutex
	snap  Snapshot
	taken time.Time

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// DefaultExposeInterval is the default snapshot cadence.
const DefaultExposeInterval = time.Second

// NewExposer starts the periodic snapshot goroutine over reg (which may be
// nil: the exposer then serves empty snapshots). interval <= 0 selects
// DefaultExposeInterval. Call Close to stop the goroutine.
func NewExposer(reg *Registry, interval time.Duration) *Exposer {
	if interval <= 0 {
		interval = DefaultExposeInterval
	}
	e := &Exposer{
		reg:      reg,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	e.Refresh()
	go e.loop()
	return e
}

// SetStatus registers an extra section rendered at the top of /statusz
// (run configuration, progress, ...). Call before serving.
func (e *Exposer) SetStatus(f func(io.Writer)) {
	e.mu.Lock()
	e.status = f
	e.mu.Unlock()
}

// Refresh takes a snapshot now, outside the periodic cadence.
func (e *Exposer) Refresh() {
	snap := e.reg.Snapshot()
	e.mu.Lock()
	e.snap = snap
	e.taken = time.Now()
	e.mu.Unlock()
}

// latest returns the most recent periodic snapshot and when it was taken.
func (e *Exposer) latest() (Snapshot, time.Time) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.snap, e.taken
}

func (e *Exposer) loop() {
	defer close(e.done)
	ticker := time.NewTicker(e.interval)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-ticker.C:
			e.Refresh()
		}
	}
}

// Register installs the /metrics and /statusz handlers on mux.
func (e *Exposer) Register(mux *http.ServeMux) {
	mux.HandleFunc("/metrics", e.serveMetrics)
	mux.HandleFunc("/statusz", e.serveStatusz)
}

func (e *Exposer) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	snap, _ := e.latest()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = snap.WritePrometheus(w)
}

func (e *Exposer) serveStatusz(w http.ResponseWriter, _ *http.Request) {
	e.mu.RLock()
	snap, taken, status := e.snap, e.taken, e.status
	e.mu.RUnlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if status != nil {
		status(w)
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "snapshot age: %v\n\n", time.Since(taken).Round(time.Millisecond))
	_ = snap.WriteText(w)
}

// Close stops the periodic snapshot goroutine. Registered handlers keep
// working, serving the final snapshot.
func (e *Exposer) Close() {
	e.stopOnce.Do(func() { close(e.stop) })
	<-e.done
}
