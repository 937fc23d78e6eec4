package server

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/obs"
	"mcauth/internal/scheme"
	"mcauth/internal/scheme/authtree"
	"mcauth/internal/scheme/emss"
	"mcauth/internal/scheme/rohatgi"
	"mcauth/internal/scheme/signeach"
	"mcauth/internal/stream"
)

// testScheme builds stream id's scheme: the four non-timed constructions
// round-robin, so the pool mixes deferred signing (chained schemes,
// authtree) with the synchronous fallback (signeach).
func testScheme(id uint64, signer crypto.Signer) (scheme.Scheme, error) {
	switch id % 4 {
	case 0:
		return emss.New(emss.Config{N: 8, M: 2, D: 1}, signer)
	case 1:
		return rohatgi.New(4, signer)
	case 2:
		return authtree.New(8, signer)
	default:
		return signeach.New(4, signer)
	}
}

func testBlockSize(id uint64) int {
	switch id % 4 {
	case 0, 2:
		return 8
	default:
		return 4
	}
}

// consume drains sub through a demux whose receivers verify with key,
// returning per-stream authenticated counts once the channel closes.
func consume(t *testing.T, sub *Subscriber, key crypto.Signer, maxStreams int) <-chan map[uint64]int {
	t.Helper()
	out := make(chan map[uint64]int, 1)
	go func() {
		dmx, err := stream.NewDemux(func(id uint64) (*stream.Receiver, error) {
			s, err := testScheme(id, crypto.BatchCapable(key))
			if err != nil {
				return nil, err
			}
			return stream.NewReceiver(s, 64)
		}, maxStreams)
		if err != nil {
			t.Error(err)
			out <- nil
			return
		}
		counts := make(map[uint64]int)
		for d := range sub.C() {
			auths, err := dmx.Ingest(d.StreamID, d.Packet, time.Now())
			if err != nil {
				t.Error(err)
				break
			}
			for _, a := range auths {
				// Deadline flushes pad partial blocks with empty
				// payloads; count only real messages.
				if len(a.Payload) > 0 {
					counts[a.StreamID]++
				}
			}
		}
		out <- counts
	}()
	return out
}

func TestServerSustains64Streams(t *testing.T) {
	const (
		streams         = 64
		blocksPerStream = 6
	)
	key := crypto.NewSignerFromString("sustain")
	reg := obs.NewRegistry()
	srv, err := New(Config{
		Signer:             key,
		BatchSize:          32,
		FlushInterval:      40 * time.Millisecond,
		MaxSubscriberQueue: 1 << 16,
		Metrics:            reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := srv.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	counts := consume(t, sub, key, streams)

	for id := uint64(1); id <= streams; id++ {
		if err := srv.OpenStream(id, func(signer crypto.Signer) (scheme.Scheme, error) {
			return testScheme(id, signer)
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := make(map[uint64]int, streams)
	var wg sync.WaitGroup
	for id := uint64(1); id <= streams; id++ {
		n := testBlockSize(id) * blocksPerStream
		want[id] = n
		wg.Add(1)
		go func(id uint64, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := srv.Publish(id, []byte(fmt.Sprintf("s%d-m%d", id, i))); err != nil {
					t.Errorf("stream %d: %v", id, err)
					return
				}
			}
		}(id, n)
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if drops := sub.Drops(); drops != 0 {
		t.Fatalf("subscriber dropped %d packets despite a deep queue", drops)
	}
	got := <-counts
	for id, n := range want {
		if got[id] != n {
			t.Errorf("stream %d: authenticated %d of %d published", id, got[id], n)
		}
	}
	if ratio := srv.BatchTotals().AmortizationRatio(); ratio <= 1 {
		t.Errorf("amortization ratio %v, want > 1", ratio)
	}
	// The ratio must be visible through the metrics registry too.
	sigs := reg.Gauge("server.batch_signatures").Value()
	roots := reg.Gauge("server.batch_signed_roots").Value()
	if sigs == 0 || roots <= sigs {
		t.Errorf("metrics report %d signatures over %d roots, want amortization > 1", sigs, roots)
	}
	if v := reg.Counter("server.published").Value(); v != int64(streams*blocksPerStream*6) {
		// streams/4 each of block sizes 8,4,8,4 -> mean 6 per block.
		t.Errorf("server.published = %d", v)
	}
	if reg.Counter("server.packets_delivered").Value() == 0 {
		t.Error("server.packets_delivered never incremented")
	}
	// Per-stream throughput instruments exist and carry the counts.
	if v := reg.Counter("server.stream.1.published").Value(); v != int64(want[1]) {
		t.Errorf("server.stream.1.published = %d, want %d", v, want[1])
	}
}

func TestServerCloseDrainsPendingBatches(t *testing.T) {
	key := crypto.NewSignerFromString("drain")
	reg := obs.NewRegistry()
	srv, err := New(Config{
		Signer: key,
		// Huge batch and long deadline: nothing flushes unless Close
		// drains it.
		BatchSize:     512,
		FlushInterval: time.Hour,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := srv.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	counts := consume(t, sub, key, 4)
	const id = 4 // emss, block size 8
	if err := srv.OpenStream(id, func(signer crypto.Signer) (scheme.Scheme, error) {
		return testScheme(id, signer)
	}); err != nil {
		t.Fatal(err)
	}
	// 11 messages: one full block plus a 3-message partial that only the
	// drain can emit (padded to the block size).
	for i := 0; i < 11; i++ {
		if err := srv.Publish(id, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	got := <-counts
	if got[id] != 11 { // all 11 real messages, across the padded drain block
		t.Fatalf("authenticated %d messages, want 11 (drained padded block)", got[id])
	}
	if reg.Counter("server.batch_flush_drain").Value() == 0 {
		t.Error("drain flush not recorded")
	}
	if st := srv.lookup(id); st != nil {
		t.Error("stream handle should be unavailable after Close")
	}
	if err := srv.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close = %v, want ErrClosed", err)
	}
}

func TestServerDeadlineFlushBoundsDelay(t *testing.T) {
	const flush = 30 * time.Millisecond
	key := crypto.NewSignerFromString("deadline")
	reg := obs.NewRegistry()
	srv, err := New(Config{
		Signer:        key,
		BatchSize:     512, // never fills: the deadline is the only flush path
		FlushInterval: flush,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := srv.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	counts := consume(t, sub, key, 4)
	const id = 4 // emss, block size 8
	if err := srv.OpenStream(id, func(signer crypto.Signer) (scheme.Scheme, error) {
		return testScheme(id, signer)
	}); err != nil {
		t.Fatal(err)
	}
	// One full block: its root sits in the batch until the deadline
	// flush signs it. The receiver's time-to-auth for the packets
	// waiting on the root is then bounded by the dependence-graph delay
	// (zero extra sends here: packets arrive back-to-back) plus at most
	// one flush interval of signature hold.
	start := time.Now()
	for i := 0; i < 8; i++ {
		if err := srv.Publish(id, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(20 * flush)
	for time.Now().Before(deadline) && reg.Counter("server.batch_flush_deadline").Value() == 0 {
		time.Sleep(flush / 4)
	}
	signedAt := time.Now()
	if reg.Counter("server.batch_flush_deadline").Value() == 0 {
		t.Fatal("deadline flush never fired")
	}
	// Generous scheduling slack, but far below the time.Hour a stuck
	// batch would take: the hold must be on the order of the deadline.
	if hold := signedAt.Sub(start); hold > 10*flush {
		t.Errorf("root held %v, want within a few flush intervals (%v)", hold, flush)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := <-counts; got[id] != 8 {
		t.Fatalf("authenticated %d packets, want 8", got[id])
	}
	if reg.Histogram("server.root_hold_ns").Data().Count == 0 {
		t.Error("root hold histogram empty")
	}
}

func TestServerBackpressureNeverDeadlocks(t *testing.T) {
	key := crypto.NewSignerFromString("pressure")
	reg := obs.NewRegistry()
	srv, err := New(Config{
		Signer:             key,
		BatchSize:          4,
		FlushInterval:      10 * time.Millisecond,
		MaxSubscriberQueue: 1,
		Metrics:            reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Subscriber that never consumes: every queue overflows.
	sub, err := srv.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	const streams = 8
	for id := uint64(1); id <= streams; id++ {
		if err := srv.OpenStream(id, func(signer crypto.Signer) (scheme.Scheme, error) {
			return testScheme(id, signer)
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for id := uint64(1); id <= streams; id++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := srv.Publish(id, []byte("x")); err != nil {
					t.Errorf("stream %d: %v", id, err)
					return
				}
			}
		}(id)
	}
	wg.Wait() // deadlock here fails via go test -timeout
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if sub.Drops() == 0 {
		t.Error("expected backpressure drops with a stalled subscriber")
	}
	if reg.Counter("server.packets_dropped_backpressure").Value() == 0 {
		t.Error("drop counter not incremented")
	}
}

func TestServerConcurrentStreamLifecycle(t *testing.T) {
	key := crypto.NewSignerFromString("lifecycle")
	srv, err := New(Config{Signer: key, FlushInterval: 5 * time.Millisecond, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := srv.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	counts := consume(t, sub, key, 128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				id := uint64(g*30 + i + 1)
				err := srv.OpenStream(id, func(signer crypto.Signer) (scheme.Scheme, error) {
					return testScheme(id, signer)
				})
				if err != nil {
					t.Errorf("open %d: %v", id, err)
					return
				}
				for m := 0; m < 10; m++ {
					if err := srv.Publish(id, []byte("m")); err != nil {
						t.Errorf("publish %d: %v", id, err)
						return
					}
				}
			}
		}(g)
	}
	// Churn subscribers concurrently with stream lifecycle.
	var subWG sync.WaitGroup
	for g := 0; g < 4; g++ {
		subWG.Add(1)
		go func() {
			defer subWG.Done()
			for i := 0; i < 50; i++ {
				extra, err := srv.Subscribe()
				if err != nil {
					return // server closed underneath us: fine
				}
				srv.Unsubscribe(extra)
			}
		}()
	}
	wg.Wait()
	subWG.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	<-counts
}

func TestServerErrorPaths(t *testing.T) {
	key := crypto.NewSignerFromString("errors")
	if _, err := New(Config{}); err == nil {
		t.Error("nil signer accepted")
	}
	if _, err := New(Config{Signer: key, BatchSize: crypto.MaxBatch + 1}); err == nil {
		t.Error("oversized batch accepted")
	}
	srv, err := New(Config{Signer: key})
	if err != nil {
		t.Fatal(err)
	}
	open := func(id uint64) error {
		return srv.OpenStream(id, func(signer crypto.Signer) (scheme.Scheme, error) {
			return testScheme(id, signer)
		})
	}
	if err := srv.OpenStream(1, nil); err == nil {
		t.Error("nil factory accepted")
	}
	if err := srv.OpenStream(1, func(crypto.Signer) (scheme.Scheme, error) {
		return nil, errors.New("boom")
	}); err == nil {
		t.Error("factory error swallowed")
	}
	if err := open(1); err != nil {
		t.Fatal(err)
	}
	if err := open(1); !errors.Is(err, errStreamExists) {
		t.Errorf("duplicate open = %v, want ErrStreamExists", err)
	}
	if err := srv.Publish(99, []byte("x")); !errors.Is(err, errUnknownStream) {
		t.Errorf("unknown publish = %v, want ErrUnknownStream", err)
	}
	if ids := srv.streamIDs(); len(ids) != 1 || ids[0] != 1 {
		t.Errorf("Streams() = %v", ids)
	}
	if st := srv.lookup(1); st == nil || st.id != 1 {
		t.Error("lookup(1) handle missing")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := open(2); !errors.Is(err, ErrClosed) {
		t.Errorf("open after close = %v, want ErrClosed", err)
	}
	if err := srv.Publish(1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("publish after close = %v, want ErrClosed", err)
	}
	if _, err := srv.Subscribe(); !errors.Is(err, ErrClosed) {
		t.Errorf("subscribe after close = %v, want ErrClosed", err)
	}
}

func TestSubscriberFilter(t *testing.T) {
	key := crypto.NewSignerFromString("filter")
	srv, err := New(Config{Signer: key, BatchSize: 4, FlushInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	only, err := srv.Subscribe(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{1, 2} {
		id := id
		if err := srv.OpenStream(id, func(signer crypto.Signer) (scheme.Scheme, error) {
			return testScheme(id, signer)
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []uint64{1, 2} {
		for i := 0; i < testBlockSize(id); i++ {
			if err := srv.Publish(id, []byte("m")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	got := 0
	for d := range only.C() {
		if d.StreamID != 1 {
			t.Fatalf("filtered subscriber saw stream %d", d.StreamID)
		}
		got++
	}
	if got == 0 {
		t.Fatal("filtered subscriber saw nothing from stream 1")
	}
}

// Several goroutines publish to the same streams at once — the mixed
// rotation, a checkpoint whose reservations the 4-message streams cross
// (80 blocks each, past reserveChunk), and a flusher ticking fast enough
// to race them — and the stream invariants
// hold: every message authenticates at a verifying subscriber, each
// stream's immediate packets reach a subscriber in block-ID order, and a
// server restarted on the checkpoint starts every stream above each block
// ID it emitted.
func TestServerConcurrentPublishersKeepStreamInvariants(t *testing.T) {
	const (
		streams    = 8
		publishers = 4
		perStream  = 80 // messages each publisher sends to each stream
	)
	path := filepath.Join(t.TempDir(), "checkpoint.json")
	key := crypto.NewSignerFromString("concurrent-publishers")
	srv, err := New(Config{
		Signer:             key,
		Checkpoint:         mustOpenCheckpoint(t, path),
		BatchSize:          8,
		FlushInterval:      2 * time.Millisecond,
		MaxSubscriberQueue: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	verified, err := srv.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	counts := consume(t, verified, key, streams)
	raw, err := srv.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	type order struct {
		last, max uint64
		any       bool
	}
	orders := make(chan map[uint64]*order, 1)
	go func() {
		seen := make(map[uint64]*order)
		for d := range raw.C() {
			o := seen[d.StreamID]
			if o == nil {
				o = &order{}
				seen[d.StreamID] = o
			}
			id := d.Packet.BlockID
			o.max = max(o.max, id)
			// Held packets carry the block's root signature and follow
			// it out of the batch signer; signeach signs synchronously,
			// so all of its packets are immediate.
			if len(d.Packet.Signature) > 0 && d.StreamID%4 != 3 {
				continue
			}
			if o.any && id < o.last {
				t.Errorf("stream %d: immediate packet of block %d after block %d", d.StreamID, id, o.last)
			}
			o.last, o.any = id, true
		}
		orders <- seen
	}()
	for id := uint64(1); id <= streams; id++ {
		if err := srv.OpenStream(id, func(signer crypto.Signer) (scheme.Scheme, error) {
			return testScheme(id, signer)
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < publishers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perStream; i++ {
				for k := 0; k < streams; k++ {
					id := uint64((g+k)%streams + 1)
					if err := srv.Publish(id, []byte(fmt.Sprintf("p%d-s%d-m%d", g, id, i))); err != nil {
						t.Errorf("publisher %d, stream %d: %v", g, id, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	got, seen := <-counts, <-orders
	for id := uint64(1); id <= streams; id++ {
		if got[id] != publishers*perStream {
			t.Errorf("stream %d: authenticated %d of %d published", id, got[id], publishers*perStream)
		}
	}

	restarted, err := New(Config{Signer: key, Checkpoint: mustOpenCheckpoint(t, path)})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	for id := uint64(1); id <= streams; id++ {
		if err := restarted.OpenStream(id, func(signer crypto.Signer) (scheme.Scheme, error) {
			return testScheme(id, signer)
		}); err != nil {
			t.Fatal(err)
		}
		o := seen[id]
		if o == nil {
			t.Fatalf("stream %d emitted nothing", id)
		}
		if next := restarted.lookup(id).snd.NextBlockID(); next <= o.max {
			t.Errorf("stream %d restarts at block %d, at or below emitted block %d", id, next, o.max)
		}
	}
}
