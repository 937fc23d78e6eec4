package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/obs"
	"mcauth/internal/packet"
	"mcauth/internal/scheme"
	"mcauth/internal/scheme/emss"
	"mcauth/internal/server"
	"mcauth/internal/transport"
)

// The feed conformance suite: a downstream subscriber must not be able to
// tell a signing server from a keyless relay. Every case runs against both
// feeds through the one handler, over net.Pipe.

const confN = 8 // block size of the suite's one emss stream (ID 1)

func confScheme(signer crypto.Signer) (scheme.Scheme, error) {
	return emss.New(emss.Config{N: confN, M: 2, D: 1}, signer)
}

// feedFixture is one feed under test.
type feedFixture struct {
	feed feed
	// produce makes the feed emit the given blocks of stream 1.
	produce func(t *testing.T, from, to uint64)
	// close ends every subscription, as stopping the feed's process does.
	close func()
	// reg holds the feed's instruments; catchup is its replay counter.
	reg     *obs.Registry
	catchup *obs.Counter
}

// emit produces blocks [from, to) and returns once each one's signature
// packet has been delivered (and therefore retained).
func (f *feedFixture) emit(t *testing.T, from, to uint64) {
	t.Helper()
	sub, err := f.feed.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	defer f.feed.Unsubscribe(sub)
	f.produce(t, from, to)
	timeout := time.After(5 * time.Second)
	for signed := from; signed < to; {
		select {
		case d := <-sub.C():
			if len(d.Packet.Signature) > 0 {
				signed++
			}
		case <-timeout:
			t.Fatalf("blocks [%d,%d): only %d signed within 5s", from, to, signed-from)
		}
	}
}

func newServerFixture(t *testing.T) *feedFixture {
	reg := obs.NewRegistry()
	srv, err := server.New(server.Config{
		Signer:        crypto.NewSignerFromString("conformance"),
		BatchSize:     1, // every root signs at once: emission order is block order
		FlushInterval: 5 * time.Millisecond,
		RepairBlocks:  64,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.OpenStream(1, confScheme); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Kill)
	return &feedFixture{
		feed: srv,
		produce: func(t *testing.T, from, to uint64) {
			for i := from * confN; i < to*confN; i++ {
				if err := srv.Publish(1, []byte(fmt.Sprintf("msg-%d", i))); err != nil {
					t.Fatal(err)
				}
			}
		},
		close:   srv.Kill,
		reg:     reg,
		catchup: reg.Counter("server.resume_catchup_packets"),
	}
}

func newRelayFixture(t *testing.T) *feedFixture {
	reg := obs.NewRegistry()
	relay, err := NewRelay(1, 64, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := confScheme(crypto.NewSignerFromString("conformance"))
	if err != nil {
		t.Fatal(err)
	}
	return &feedFixture{
		feed: relay,
		produce: func(t *testing.T, from, to uint64) {
			for b := from; b < to; b++ {
				payloads := make([][]byte, confN)
				for i := range payloads {
					payloads[i] = []byte(fmt.Sprintf("msg-%d", int(b)*confN+i))
				}
				pkts, err := sch.Authenticate(b, payloads)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range pkts {
					if err := relay.Packet(1, p); err != nil {
						t.Fatal(err)
					}
				}
			}
		},
		close:   relay.Close,
		reg:     reg,
		catchup: reg.Counter(MetricRelayCatchupServed),
	}
}

// watchedFeed closes subscribed once the handler has subscribed, so the
// live blocks a test produces after that reach the connection.
type watchedFeed struct {
	feed
	subscribed chan struct{}
}

func (w watchedFeed) Subscribe(streamIDs ...uint64) (*server.Subscriber, error) {
	defer close(w.subscribed)
	return w.feed.Subscribe(streamIDs...)
}

// confClient is the subscriber end of one served net.Pipe. A pipe has no
// buffer, so control frames go out from their own goroutine, in order,
// while the test reads.
type confClient struct {
	t          *testing.T
	conn       net.Conn
	mr         *transport.MuxFrameReader
	out        chan func() error // control-frame writes, queued
	subscribed chan struct{}     // closed once serveConn has subscribed
	served     chan struct{}     // closed when serveConn returns
	stop       func()            // the feed's close, which ends a stuck session
}

func serveOverPipe(t *testing.T, f *feedFixture, writeTimeout time.Duration) *confClient {
	t.Helper()
	client, srvEnd := net.Pipe()
	c := &confClient{
		t: t, conn: client, mr: transport.NewMuxFrameReader(client),
		out: make(chan func() error, 16), subscribed: make(chan struct{}), served: make(chan struct{}),
		stop: f.close,
	}
	h := &handler{Feed: watchedFeed{f.feed, c.subscribed}, WriteTimeout: writeTimeout}
	go func() {
		defer close(c.served)
		h.serveConn(srvEnd)
	}()
	written := make(chan struct{})
	go func() {
		defer close(written)
		for write := range c.out {
			if err := write(); err != nil {
				t.Errorf("control frame: %v", err)
				return
			}
		}
	}()
	t.Cleanup(func() {
		client.Close()
		close(c.out)
		<-written
		<-c.served
	})
	return c
}

// key identifies one packet of stream 1.
type key struct {
	block uint64
	index uint32
}

func keys(pkts []*packet.Packet) []key {
	out := make([]key, len(pkts))
	for i, p := range pkts {
		out[i] = key{p.BlockID, p.Index}
	}
	return out
}

// read returns the keys of the next n frames.
func (c *confClient) read(n int) []key {
	c.t.Helper()
	_ = c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	out := make([]key, 0, n)
	for len(out) < n {
		id, p, err := c.mr.ReadPacket()
		if err != nil {
			c.t.Fatalf("frame %d of %d: %v", len(out)+1, n, err)
		}
		if id != 1 {
			c.t.Fatalf("frame for stream %d, want 1", id)
		}
		out = append(out, key{p.BlockID, p.Index})
	}
	return out
}

func (c *confClient) hello(points ...transport.ResumePoint) {
	c.out <- func() error { return transport.WriteHello(c.conn, points) }
}

// send queues raw bytes. Their write error is ignored: a handler that
// stops reading after a prefix of them leaves the rest to a closed pipe.
func (c *confClient) send(b []byte) {
	c.out <- func() error {
		_, _ = c.conn.Write(b)
		return nil
	}
}

// produceLive makes the feed emit block b once the handler has subscribed,
// and fails unless the next confN frames are all b's.
func (c *confClient) produceLive(f *feedFixture, b uint64) {
	c.t.Helper()
	select {
	case <-c.subscribed:
	case <-time.After(5 * time.Second):
		c.t.Fatal("serveConn never subscribed")
	}
	f.produce(c.t, b, b+1)
	for _, k := range c.read(confN) {
		if k.block != b {
			c.t.Fatalf("frame of block %d, want only live block %d", k.block, b)
		}
	}
}

// waitServed fails unless serveConn returns within d; a session still
// running is ended through the feed, so that the test fails instead of
// hanging in its cleanup.
func (c *confClient) waitServed(what string, d time.Duration) {
	c.t.Helper()
	select {
	case <-c.served:
	case <-time.After(d):
		c.stop()
		c.t.Fatalf("%s: serveConn still running after %v", what, d)
	}
}

func equalKeys(a, b []key) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFeedConformance(t *testing.T) {
	feeds := []struct {
		name string
		make func(*testing.T) *feedFixture
	}{
		{"server", newServerFixture},
		{"relay", newRelayFixture},
	}
	cases := []struct {
		name string
		run  func(*testing.T, *feedFixture)
	}{
		{"resume replays a contiguous suffix then live", func(t *testing.T, f *feedFixture) {
			f.emit(t, 0, 4)
			want := keys(f.feed.ResumeFrom(1, 2))
			if len(want) == 0 || want[0].block != 2 || want[len(want)-1].block != 3 {
				t.Fatalf("retention from block 2 = %v, want blocks 2..3", want)
			}
			before := f.catchup.Value()
			c := serveOverPipe(t, f, 0)
			c.hello(transport.ResumePoint{StreamID: 1, From: 2})
			if got := c.read(len(want)); !equalKeys(got, want) {
				t.Fatalf("catch-up = %v\nwant       %v", got, want)
			}
			if got := f.catchup.Value() - before; got != int64(len(want)) {
				t.Errorf("catch-up counter moved by %d, want %d", got, len(want))
			}
			// Everything after the replay is live: block 4, nothing older.
			f.produce(t, 4, 5)
			for _, k := range c.read(confN) {
				if k.block != 4 {
					t.Fatalf("frame of block %d after the replay, want only live block 4", k.block)
				}
			}
		}},
		{"unknown stream or block returns nothing", func(t *testing.T, f *feedFixture) {
			f.emit(t, 0, 2)
			c := serveOverPipe(t, f, 0)
			c.hello(transport.ResumePoint{StreamID: 9, From: 0}, transport.ResumePoint{StreamID: 1, From: 99})
			c.produceLive(f, 2) // the sentinel: nothing comes before it
		}},
		{"a first frame that is not a hello closes the connection", func(t *testing.T, f *feedFixture) {
			f.emit(t, 0, 2)
			before := f.catchup.Value()
			c := serveOverPipe(t, f, 0)
			// The 25-byte repair request of an older wire: "MCRQ", version
			// 1, stream 1, block 1, index 0 (the block's signature class).
			mcrq := append([]byte("MCRQ\x01"), make([]byte, 20)...)
			binary.BigEndian.PutUint64(mcrq[5:], 1)
			binary.BigEndian.PutUint64(mcrq[13:], 1)
			c.send(mcrq)
			c.waitServed("non-hello first frame", 5*time.Second)
			if got := f.catchup.Value() - before; got != 0 {
				t.Errorf("catch-up counter moved by %d for a subscriber that sent no hello", got)
			}
			_ = c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, _, err := c.mr.ReadPacket(); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
				t.Fatalf("read after a non-hello first frame = %v, want the connection closed", err)
			}
		}},
		{"a silent subscriber that hangs up loses its subscription", func(t *testing.T, f *feedFixture) {
			c := serveOverPipe(t, f, 0)
			select {
			case <-c.subscribed:
			case <-time.After(5 * time.Second):
				t.Fatal("serveConn never subscribed")
			}
			c.conn.Close() // no hello, and the feed stays quiet
			c.waitServed("silent subscriber hung up", helloTimeout+time.Second)
		}},
		{"a second control frame ends the session", func(t *testing.T, f *feedFixture) {
			f.emit(t, 0, 1)
			c := serveOverPipe(t, f, 0)
			c.hello(transport.ResumePoint{StreamID: 1, From: 0})
			c.read(len(f.feed.ResumeFrom(1, 0)))
			var again bytes.Buffer
			if err := transport.WriteHello(&again, []transport.ResumePoint{{StreamID: 1, From: 0}}); err != nil {
				t.Fatal(err)
			}
			c.send(again.Bytes())
			c.waitServed("second hello", 5*time.Second)
			_ = c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, _, err := c.mr.ReadPacket(); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
				t.Fatalf("read after the second hello = %v, want the connection closed", err)
			}
		}},
		{"a stalled reader is cut by the write deadline", func(t *testing.T, f *feedFixture) {
			f.emit(t, 0, 2)
			c := serveOverPipe(t, f, 50*time.Millisecond)
			c.hello(transport.ResumePoint{StreamID: 1, From: 0})
			// Never read: the first catch-up write must time out.
			c.waitServed("stalled reader", 5*time.Second)
		}},
		{"stop joins every goroutine", func(t *testing.T, f *feedFixture) {
			f.emit(t, 0, 1)
			c := serveOverPipe(t, f, 0)
			c.hello(transport.ResumePoint{StreamID: 1, From: 0})
			c.read(len(f.feed.ResumeFrom(1, 0)))
			f.produce(t, 1, 2)
			c.read(confN) // a live block arrived: the hang-up reader is running
			f.close()
			c.waitServed("feed closed", 5*time.Second)
			_ = c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, _, err := c.mr.ReadPacket(); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
				t.Fatalf("read after stop = %v, want the connection closed", err)
			}
		}},
	}
	for _, fd := range feeds {
		for _, tc := range cases {
			t.Run(fd.name+"/"+tc.name, func(t *testing.T) { tc.run(t, fd.make(t)) })
		}
	}
}
