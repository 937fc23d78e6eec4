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
}

// helloTimeout is how long a handler waits for a subscriber's resume hello
// before closing the connection.
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
// live deliveries buffer during replay), read the resume hello under
// helloTimeout, replay its catch-up, then forward live. A connection whose
// first frame is not a hello, or that sends none in time, is closed. A
// subscriber sends one hello, so after it a reader only watches for the
// end: the peer hanging up or sending anything more ends the session, as
// do the subscription closing and a write failing or timing out. Every
// write is on the calling goroutine, and the reader has exited when
// serveConn returns.
func (h *handler) serveConn(conn net.Conn) {
	if h.Wrap != nil {
		conn = h.Wrap(conn)
	}
	var reader sync.WaitGroup
	defer reader.Wait()
	defer conn.Close() // unblocks the reader
	sub, err := h.Feed.Subscribe()
	if err != nil {
		return
	}
	defer h.Feed.Unsubscribe(sub)

	mw := transport.NewMuxFrameWriter(conn)
	mw.SetMetrics(h.Metrics)
	mw.SetSpans(h.Spans)
	write := func(streamID uint64, p *packet.Packet) error {
		if h.WriteTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(h.WriteTimeout))
		}
		return mw.WritePacket(streamID, p)
	}

	_ = conn.SetReadDeadline(time.Now().Add(helloTimeout))
	points, err := transport.ReadHello(conn)
	if err != nil {
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	// Replay before forwarding live: duplicates across the seam are
	// possible and fine (receivers count and discard them).
	for _, pt := range points {
		for _, p := range h.Feed.ResumeFrom(pt.StreamID, pt.From) {
			if write(pt.StreamID, p) != nil {
				return
			}
		}
	}
	reader.Add(1)
	go func() {
		defer reader.Done()
		// End the whole session: cut any write in flight and end the
		// live loop.
		defer h.Feed.Unsubscribe(sub)
		defer conn.Close()
		_, _ = conn.Read(make([]byte, 1))
	}()
	for d := range sub.C() {
		if write(d.StreamID, d.Packet) != nil {
			return
		}
	}
}
