package serve

import (
	"context"
	"fmt"
	"net"
	"time"

	"mcauth/internal/obs"
	"mcauth/internal/packet"
	"mcauth/internal/stats"
	"mcauth/internal/transport"
)

// sink consumes what a Session reads off its upstream connection. All
// three methods are called from the Session's goroutine only.
type sink interface {
	// Cursors returns the resume points for the next connection's hello.
	Cursors() []transport.ResumePoint
	// Packet takes one upstream packet; an error is fatal to the Session.
	Packet(streamID uint64, p *packet.Packet) error
	// EndSession is called when a connection dies, before any redial.
	EndSession() error
}

// maxBackoff caps a Session's redial backoff.
const maxBackoff = time.Second

// Session is a persistent upstream subscriber: it dials, sends a resume
// hello carrying the sink's cursors, reads mux frames into the sink, and
// redials with capped, jittered exponential backoff when the connection
// dies. From upstream's point of view a verifying receiver and a relay are
// the same subscriber; they differ only in the sink.
type Session struct {
	// Addr is the upstream TCP address; Wrap, when non-nil, decorates each
	// dialed conn (fault injection).
	Addr string
	Wrap func(net.Conn) net.Conn
	Sink sink
	// MaxFails is how many consecutive failed dials end Run (-1 = retry
	// forever, 0 = a single session with no reconnect).
	MaxFails int
	// Backoff is the initial redial delay.
	Backoff time.Duration
	// Metrics receives the transport.* read accounting; Reconnects counts
	// every session after the first (nil disables either).
	Metrics    *obs.Registry
	Reconnects *obs.Counter
	// Sessions counts the connections established; read it after Run returns.
	Sessions int
}

// Run dials, feeds the sink, and redials until ctx is cancelled, dial
// attempts are exhausted, or the sink fails. A connection-level failure
// (reset, torn frame, EOF) ends the connection and triggers a reconnect —
// never an error: loss is the normal operating mode of this stack. Only a
// Session that never connected at all reports its last dial error.
func (s *Session) Run(ctx context.Context) error {
	rng := stats.NewRNG(uint64(time.Now().UnixNano()))
	backoff := s.Backoff
	fails := 0
	for ctx.Err() == nil {
		conn, err := net.Dial("tcp", s.Addr)
		if err != nil {
			fails++
			if s.MaxFails >= 0 && fails > s.MaxFails {
				if s.Sessions == 0 {
					return fmt.Errorf("serve: upstream never connected: %w", err)
				}
				return nil
			}
			// Sleep backoff plus up to half again, so a thundering herd of
			// subscribers spreads out.
			delay := backoff + time.Duration(rng.Intn(int(backoff/2)+1))
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(delay):
			}
			backoff = min(2*backoff, maxBackoff)
			continue
		}
		fails = 0
		backoff = s.Backoff
		if s.Sessions > 0 {
			s.Reconnects.Inc()
		}
		s.Sessions++
		if s.Wrap != nil {
			conn = s.Wrap(conn)
		}
		if err := s.session(ctx, conn); err != nil {
			return err
		}
		if s.MaxFails == 0 {
			return nil
		}
	}
	return nil
}

// session runs one connection: hello with resume cursors, then packets
// into the sink until the conn dies or ctx is cancelled.
func (s *Session) session(ctx context.Context, conn net.Conn) error {
	defer conn.Close()
	defer context.AfterFunc(ctx, func() { conn.Close() })() // unblocks the read loop
	if err := transport.WriteHello(conn, s.Sink.Cursors()); err != nil {
		return nil // conn-level: reconnect
	}
	mr := transport.NewMuxFrameReader(conn)
	mr.SetMetrics(s.Metrics)
	for {
		id, p, err := mr.ReadPacket()
		if err != nil {
			return s.Sink.EndSession()
		}
		if err := s.Sink.Packet(id, p); err != nil {
			return err
		}
	}
}
