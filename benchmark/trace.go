package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"sync"
)

// Span kinds. The harness records spans only around its own calls into the
// layers; a span's parent is the span that caused it and the two share an
// id (a message sequence number, or a packet ordinal on the connection).
type kind uint8

const (
	kNone kind = iota
	kMessage
	kPublish
	kResidency
	kMuxWrite
	kSockWrite
	kMuxRead
	kSockRead
	kIngest
	kResolve
	kDrain
	kPark
	kPass
	kFigures
	kOverlay
	numKinds
)

var kindNames = [numKinds]string{
	"", "message", "server.publish", "server.residency",
	"transport.mux_write", "transport.sock_write", "transport.mux_read", "transport.sock_read",
	"stream.ingest", "crypto.resolve", "stream.drain", "stream.park",
	"verifier.pass", "experiments.figures", "netsim.overlay",
}

type span struct {
	kind, parent kind
	id           uint64
	start, end   int64
}

// maxLoggedSpans bounds each goroutine's span log; the totals below cover
// every span whether or not it was logged.
const maxLoggedSpans = 1 << 18

// tracer collects the spans of one traced measurement. Each goroutine
// records into its own traceBuf, so recording takes no lock.
type tracer struct {
	every uint64 // log the spans of ids divisible by every

	mu   sync.Mutex
	bufs []*traceBuf
}

func newTracer(every uint64) *tracer { return &tracer{every: max(every, 1)} }

// buf returns a new recording buffer, or nil from a nil tracer: untraced
// code paths test their buffer against nil and record nothing.
func (t *tracer) buf() *traceBuf {
	if t == nil {
		return nil
	}
	b := &traceBuf{every: t.every}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

type kindTotal struct {
	count   int64
	total   int64 // summed duration
	covered int64 // summed duration of child spans
}

// self is the kind's self time: its spans' duration minus the part their
// child spans cover.
func (k kindTotal) self() float64 { return float64(k.total - k.covered) }

type traceBuf struct {
	every  uint64
	totals [numKinds]kindTotal
	log    []span
}

func (b *traceBuf) add(k, parent kind, id uint64, start, end int64) {
	t := &b.totals[k]
	t.count++
	t.total += end - start
	b.totals[parent].covered += end - start
	if id%b.every == 0 && len(b.log) < maxLoggedSpans {
		b.log = append(b.log, span{k, parent, id, start, end})
	}
}

// totals merges every buffer; call it once the recording goroutines ended.
func (t *tracer) totals() [numKinds]kindTotal {
	var sum [numKinds]kindTotal
	for _, b := range t.bufs {
		for k, kt := range b.totals {
			sum[k].count += kt.count
			sum[k].total += kt.total
			sum[k].covered += kt.covered
		}
	}
	return sum
}

// writeJSONL writes the logged spans, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, b := range t.bufs {
		for _, s := range b.log {
			line := struct {
				Name    string `json:"name"`
				Parent  string `json:"parent,omitempty"`
				ID      uint64 `json:"id"`
				StartNS int64  `json:"start_ns"`
				EndNS   int64  `json:"end_ns"`
			}{kindNames[s.kind], kindNames[s.parent], s.id, s.start, s.end}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// meteredConn counts the bytes one side of the connection moves and, in a
// traced run, records each socket call as a child span of the mux call that
// made it. Each side of the connection is used by one goroutine only.
type meteredConn struct {
	net.Conn
	clk    clock
	tb     *traceBuf
	parent kind
	child  kind
	id     uint64 // ordinal of the packet the enclosing mux call moves
	bytes  int64
}

func (c *meteredConn) Write(p []byte) (int, error) {
	if c.tb == nil {
		n, err := c.Conn.Write(p)
		c.bytes += int64(n)
		return n, err
	}
	t0 := c.clk.now()
	n, err := c.Conn.Write(p)
	c.tb.add(c.child, c.parent, c.id, t0, c.clk.now())
	c.bytes += int64(n)
	return n, err
}

func (c *meteredConn) Read(p []byte) (int, error) {
	if c.tb == nil {
		n, err := c.Conn.Read(p)
		c.bytes += int64(n)
		return n, err
	}
	t0 := c.clk.now()
	n, err := c.Conn.Read(p)
	c.tb.add(c.child, c.parent, c.id, t0, c.clk.now())
	c.bytes += int64(n)
	return n, err
}
