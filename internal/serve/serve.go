// Package serve is the serving loop, written once. A receiver
// authenticates exactly what its dependence graph says is verifiable from
// whatever arrives, so who forwarded a packet does not matter: a relay is
// a keyless subscriber that is also a feed. handler serves downstream
// connections from a feed (*server.Server or *Relay); Session is the
// redialing upstream subscriber and hands every packet to a sink
// (*VerifySink or *Relay). mcserved's roles are compositions: -listen is
// handler(server), -connect is Session(VerifySink), -relay is
// Session(Relay) + handler(Relay); -demo and the lab's server cells are
// Config.Loopback, and -chaos drives the same VerifySink through a
// Session.
package serve

import (
	"net"
	"sync"
	"time"

	"mcauth/internal/obs"
	"mcauth/internal/packet"
	"mcauth/internal/server"
	"mcauth/internal/transport"
)

// feed is what a downstream connection is served from.
type feed interface {
	// Subscribe opens a live feed of everything emitted from now on.
	Subscribe(streamIDs ...uint64) (*server.Subscriber, error)
	Unsubscribe(*server.Subscriber)
	// ResumeFrom returns the retained packets of a stream's blocks >= from,
	// oldest block first: the catch-up a resume hello asks for.
	ResumeFrom(streamID, from uint64) []*packet.Packet
	// Repair answers one MCRQ: the block's signature-class packets for
	// transport.NACKSigRequest, else the packet at index; nil when the
	// stream or block is not retained.
	Repair(streamID, blockID uint64, index uint32) []*packet.Packet
}

// helloTimeout is how long a handler waits for a subscriber's first
// control frame before treating the connection as a legacy live-only feed.
const helloTimeout = 2 * time.Second

// handler serves downstream subscriber connections from one feed.
type handler struct {
	Feed feed
	// Metrics receives the transport.* write accounting and Spans a
	// mux_write span per packet leaving the process (nil disables either).
	Metrics *obs.Registry
	Spans   *obs.SpanSink
	// WriteTimeout is the per-packet write deadline (0 = none): a stalled
	// reader loses its connection instead of pinning the writer.
	WriteTimeout time.Duration
	// Wrap, when non-nil, decorates each accepted conn (fault injection).
	Wrap func(net.Conn) net.Conn
}

// listen serves every connection ln accepts until ln closes, and returns
// once every connection has ended — which they do when the feed closes
// their subscriptions (Server.Close / Kill, Fanout.Close).
func (h *handler) listen(ln net.Listener) {
	var conns sync.WaitGroup
	defer conns.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conns.Add(1)
		go func() {
			defer conns.Done()
			h.serveConn(conn)
		}()
	}
}

// serveConn runs one subscriber connection to its end: subscribe first (so
// live deliveries buffer during replay), answer the first control frame
// under helloTimeout, then forward live while a control reader answers
// further hellos and MCRQ repair requests. A connection whose first frame
// never arrives or does not parse is a legacy subscriber: live only, its
// read side ignored. The session ends when the subscription closes, a
// write fails or times out, or the control plane dies; the control reader
// has exited when serveConn returns.
func (h *handler) serveConn(conn net.Conn) {
	if h.Wrap != nil {
		conn = h.Wrap(conn)
	}
	var ctl sync.WaitGroup
	defer ctl.Wait()
	defer conn.Close() // unblocks the control reader
	sub, err := h.Feed.Subscribe()
	if err != nil {
		return
	}
	defer h.Feed.Unsubscribe(sub)

	mw := transport.NewMuxFrameWriter(conn)
	mw.SetMetrics(h.Metrics)
	mw.SetSpans(h.Spans)
	var wmu sync.Mutex // live forwarding and control answers share the wire
	write := func(streamID uint64, pkts ...*packet.Packet) error {
		wmu.Lock()
		defer wmu.Unlock()
		for _, p := range pkts {
			if h.WriteTimeout > 0 {
				_ = conn.SetWriteDeadline(time.Now().Add(h.WriteTimeout))
			}
			if err := mw.WritePacket(streamID, p); err != nil {
				return err
			}
		}
		return nil
	}
	answer := func(cf *transport.ControlFrame) error {
		if !cf.IsHello {
			rq := cf.Repair
			return write(rq.StreamID, h.Feed.Repair(rq.StreamID, rq.BlockID, rq.Index)...)
		}
		// Replay before forwarding live: duplicates across the seam are
		// possible and fine (receivers count and discard them).
		for _, pt := range cf.Hello {
			if err := write(pt.StreamID, h.Feed.ResumeFrom(pt.StreamID, pt.From)...); err != nil {
				return err
			}
		}
		return nil
	}

	_ = conn.SetReadDeadline(time.Now().Add(helloTimeout))
	cf, err := transport.ReadControlFrame(conn)
	_ = conn.SetReadDeadline(time.Time{})
	if err == nil {
		if answer(cf) != nil {
			return
		}
		ctl.Add(1)
		go func() {
			defer ctl.Done()
			// Control-plane death ends the whole session: cut any write in
			// flight and end the live loop.
			defer h.Feed.Unsubscribe(sub)
			defer conn.Close()
			for {
				cf, err := transport.ReadControlFrame(conn)
				if err != nil || answer(cf) != nil {
					return
				}
			}
		}()
	}
	for d := range sub.C() {
		if write(d.StreamID, d.Packet) != nil {
			return
		}
	}
}
