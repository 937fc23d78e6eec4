// Connection-level chaos: where fault.Injector mutates datagram *bytes*,
// ConnFaults breaks the *transport* a serving tier rides on — TCP
// connections that reset mid-frame, writes that land partially before the
// peer vanishes, and readers that stall long enough to back the sender's
// queues up. These are the process-level failures the resilient serving
// tier (checkpointing, session resume, priority shedding) exists to
// absorb, so the chaos harness injects them at the net.Conn boundary.
//
// Randomness again comes from an explicit *stats.RNG; unlike Injector, a
// ConnFaults instance is shared across connections (accept loops wrap
// every conn), so the RNG sits behind a mutex and the counters are atomic.

package fault

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mcauth/internal/stats"
)

// ConnFaultConfig parameterizes connection-level failure injection. All
// rates are per-operation probabilities in [0,1]; a zero config injects
// nothing.
type ConnFaultConfig struct {
	// Seed feeds the shared RNG.
	Seed uint64
	// ResetRate is the probability a Write aborts the connection: a random
	// prefix of the buffer is written, then the conn closes — the peer
	// sees a mid-frame reset.
	ResetRate float64
	// PartialWriteRate is the probability a Write reports success for only
	// a strict prefix (a torn frame without a close), which a framed
	// reader downstream must survive as a decode error, never a crash.
	PartialWriteRate float64
	// ReadStallRate is the probability a Read sleeps StallDelay first — a
	// consumer that stops draining, backing pressure up into the server.
	ReadStallRate float64
	// StallDelay is the read stall length (default 50ms).
	StallDelay time.Duration
}

// validate checks the configuration.
func (c ConnFaultConfig) validate() error {
	rates := map[string]float64{
		"reset":         c.ResetRate,
		"partial write": c.PartialWriteRate,
		"read stall":    c.ReadStallRate,
	}
	for name, r := range rates {
		if r < 0 || r > 1 {
			return fmt.Errorf("fault: %s rate %v out of [0,1]", name, r)
		}
	}
	if c.StallDelay < 0 {
		return fmt.Errorf("fault: negative stall delay %v", c.StallDelay)
	}
	return nil
}

// enabled reports whether the configuration injects anything.
func (c ConnFaultConfig) enabled() bool {
	return c.ResetRate > 0 || c.PartialWriteRate > 0 || c.ReadStallRate > 0
}

const defaultConnStallDelay = 50 * time.Millisecond

// ConnFaults wraps net.Conns with seeded failure injection. One instance
// serves many connections (safe for concurrent use); its counters report
// what was injected so harnesses can assert the chaos actually happened.
type ConnFaults struct {
	cfg ConnFaultConfig

	mu  sync.Mutex
	rng *stats.RNG

	resets        atomic.Int64
	partialWrites atomic.Int64
	stalls        atomic.Int64
}

// NewConnFaults builds the injector.
func NewConnFaults(cfg ConnFaultConfig) (*ConnFaults, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.StallDelay == 0 {
		cfg.StallDelay = defaultConnStallDelay
	}
	return &ConnFaults{cfg: cfg, rng: stats.NewRNG(cfg.Seed)}, nil
}

// Resets returns how many connection resets were injected.
func (cf *ConnFaults) Resets() int64 { return cf.resets.Load() }

// PartialWrites returns how many torn writes were injected.
func (cf *ConnFaults) PartialWrites() int64 { return cf.partialWrites.Load() }

// Stalls returns how many read stalls were injected.
func (cf *ConnFaults) Stalls() int64 { return cf.stalls.Load() }

// bernoulli draws from the shared RNG under the lock.
func (cf *ConnFaults) bernoulli(rate float64) bool {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	return cf.rng.Bernoulli(rate)
}

// intn draws from the shared RNG under the lock.
func (cf *ConnFaults) intn(n int) int {
	cf.mu.Lock()
	defer cf.mu.Unlock()
	return cf.rng.Intn(n)
}

// Wrap returns conn with fault injection applied to Read and Write. A nil
// ConnFaults (or one with nothing enabled) returns conn unchanged.
func (cf *ConnFaults) Wrap(conn net.Conn) net.Conn {
	if cf == nil || !cf.cfg.enabled() {
		return conn
	}
	return &faultyConn{Conn: conn, cf: cf}
}

// faultyConn is one wrapped connection.
type faultyConn struct {
	net.Conn
	cf *ConnFaults
}

// Read may stall before delegating — a consumer that stopped draining.
func (fc *faultyConn) Read(b []byte) (int, error) {
	if fc.cf.cfg.ReadStallRate > 0 && fc.cf.bernoulli(fc.cf.cfg.ReadStallRate) {
		fc.cf.stalls.Add(1)
		time.Sleep(fc.cf.cfg.StallDelay)
	}
	return fc.Conn.Read(b)
}

// Write may tear the buffer (strict-prefix success) or reset the
// connection after a partial transmit.
func (fc *faultyConn) Write(b []byte) (int, error) {
	if fc.cf.cfg.ResetRate > 0 && fc.cf.bernoulli(fc.cf.cfg.ResetRate) {
		fc.cf.resets.Add(1)
		n := 0
		if len(b) > 0 {
			if n = fc.cf.intn(len(b)); n > 0 {
				n, _ = fc.Conn.Write(b[:n])
			}
		}
		fc.Conn.Close()
		return n, fmt.Errorf("fault: injected connection reset: %w", net.ErrClosed)
	}
	if fc.cf.cfg.PartialWriteRate > 0 && len(b) > 1 && fc.cf.bernoulli(fc.cf.cfg.PartialWriteRate) {
		fc.cf.partialWrites.Add(1)
		n, err := fc.Conn.Write(b[:1+fc.cf.intn(len(b)-1)])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("fault: injected partial write (%d of %d bytes)", n, len(b))
	}
	return fc.Conn.Write(b)
}
