package obs

import (
	"net/http"
	"sync/atomic"
)

// Health states, in lifecycle order: a process starts unready, becomes
// ready once it accepts work, and drains when shutdown has begun but
// in-flight work is still finishing.
const (
	healthStarting int32 = iota
	healthReady
	healthDraining
)

// Health is a process-level readiness flag served at /healthz. Load
// balancers and orchestration probe it: 200 while ready, 503 while
// starting or draining — so a draining daemon stops receiving new
// subscribers before its listener actually closes. All methods are safe on
// a nil receiver (a process without health exposition).
type Health struct {
	state atomic.Int32
}

// SetReady marks the process ready to accept work.
func (h *Health) SetReady() {
	if h != nil {
		h.state.Store(healthReady)
	}
}

// SetDraining marks the process as shutting down: still finishing
// in-flight work, but no longer a target for new work.
func (h *Health) SetDraining() {
	if h != nil {
		h.state.Store(healthDraining)
	}
}

// current returns the lifecycle state (healthStarting for nil).
func (h *Health) current() int32 {
	if h == nil {
		return healthStarting
	}
	return h.state.Load()
}

// String names the state for /healthz bodies and logs.
func (h *Health) String() string {
	switch h.current() {
	case healthReady:
		return "ready"
	case healthDraining:
		return "draining"
	default:
		return "starting"
	}
}

// ServeHTTP answers readiness probes: 200 "ready" or 503 with the state
// name.
func (h *Health) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if h.current() == healthReady {
		w.WriteHeader(http.StatusOK)
	} else {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_, _ = w.Write([]byte(h.String() + "\n"))
}

// Register installs the /healthz handler on mux.
func (h *Health) Register(mux *http.ServeMux) {
	mux.Handle("/healthz", h)
}
