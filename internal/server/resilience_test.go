package server

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/obs"
	"mcauth/internal/scheme"
	"mcauth/internal/scheme/emss"
	"mcauth/internal/stream"
)

// emssBuilder opens streams with a fixed EMSS geometry (n messages per
// block, one deferred signature packet per block).
func emssBuilder(n int) func(signer crypto.Signer) (scheme.Scheme, error) {
	return func(signer crypto.Signer) (scheme.Scheme, error) {
		return emss.New(emss.Config{N: n, M: 2, D: 1}, signer)
	}
}

func TestOpenCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.json")

	// Missing file: a cold start with no history.
	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.startBlock(1) != 0 || cp.isClean() {
		t.Fatalf("fresh checkpoint: start %d clean %v", cp.startBlock(1), cp.isClean())
	}

	// Corrupt file: refusing to guess is the only safe answer — resuming
	// from a wrong watermark could fork block identities.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(bad); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

// newCheckpointedServer builds a server wired to the checkpoint at path.
func newCheckpointedServer(t *testing.T, path string, key crypto.Signer, reg *obs.Registry) *Server {
	t.Helper()
	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Signer:       key,
		Checkpoint:   cp,
		ReserveChunk: 4,
		// Batching configured so roots stay unsigned across a kill: the
		// batch never fills and the deadline never fires within the test.
		BatchSize:     crypto.MaxBatch,
		FlushInterval: time.Hour,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// drainBlocks collects the distinct block IDs a subscriber saw, after its
// channel closes.
func drainBlocks(sub *Subscriber) map[uint64]bool {
	blocks := make(map[uint64]bool)
	for d := range sub.C() {
		blocks[d.Packet.BlockID] = true
	}
	return blocks
}

// TestCheckpointRestoreNeverForksBlocks is the crash-recovery round trip:
// a server is killed mid-batch (unsigned roots die with it), a second
// incarnation restores from the checkpoint, and the block IDs the two
// incarnations emit must be disjoint. Overlap would mean one block
// identity signed twice with different content — a fork a verifier could
// be equivocated with. The watermark also must not be the exact next
// block (that would require trusting volatile state a crash destroys);
// it is the write-ahead reservation boundary.
func TestCheckpointRestoreNeverForksBlocks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint.json")
	key := crypto.NewSignerFromString("restore")

	srv1 := newCheckpointedServer(t, path, key, nil)
	sub1, err := srv1.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.OpenStream(1, emssBuilder(4)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ { // 3 complete blocks of 4
		if err := srv1.Publish(1, []byte("first-life")); err != nil {
			t.Fatal(err)
		}
	}
	srv1.Kill()
	first := drainBlocks(sub1)
	for _, id := range []uint64{0, 1, 2} {
		if !first[id] {
			t.Fatalf("first incarnation blocks %v, want 0-2", first)
		}
	}

	// The crash left a dirty checkpoint whose watermark is the reservation
	// boundary: block 0's emit reserved through 0+ReserveChunk.
	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if cp.isClean() {
		t.Fatal("checkpoint marked clean after a kill")
	}
	if got := cp.startBlock(1); got != 4 {
		t.Fatalf("restored start block %d, want reservation watermark 4", got)
	}

	srv2 := newCheckpointedServer(t, path, key, nil)
	sub2, err := srv2.Subscribe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.OpenStream(1, emssBuilder(4)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := srv2.Publish(1, []byte("second-life")); err != nil {
			t.Fatal(err)
		}
	}
	srv2.Kill()
	second := drainBlocks(sub2)
	if len(second) == 0 {
		t.Fatal("second incarnation emitted nothing")
	}
	for id := range second {
		if id < 4 {
			t.Fatalf("second incarnation reused block %d (< watermark 4): fork", id)
		}
		if first[id] {
			t.Fatalf("block %d emitted by both incarnations", id)
		}
	}
}

// TestCheckpointCleanRestart checks the graceful path: Close tightens the
// watermark from the chunk boundary to the exact next block ID, so a
// clean restart leaves no gap at all.
func TestCheckpointCleanRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint.json")
	key := crypto.NewSignerFromString("clean-restart")

	srv, err := New(Config{
		Signer:        key,
		Checkpoint:    mustOpenCheckpoint(t, path),
		ReserveChunk:  64,
		BatchSize:     4,
		FlushInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.OpenStream(7, emssBuilder(4)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ { // exactly 2 blocks
		if err := srv.Publish(7, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.isClean() {
		t.Fatal("graceful Close left a dirty checkpoint")
	}
	if got := cp.startBlock(7); got != 2 {
		t.Fatalf("clean restart start block %d, want exact next 2", got)
	}
}

func mustOpenCheckpoint(t *testing.T, path string) *Checkpoint {
	t.Helper()
	cp, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// TestServerCloseRacesCloseStreamAndPublish hammers the shutdown paths
// under the race detector: publishers, stream closers, and Close all
// running concurrently. Errors are expected (the server is going away);
// data races, sends on closed channels, and deadlocks are not.
func TestServerCloseRacesCloseStreamAndPublish(t *testing.T) {
	key := crypto.NewSignerFromString("close-race")
	for iter := 0; iter < 20; iter++ {
		srv, err := New(Config{
			Signer:        key,
			BatchSize:     8,
			FlushInterval: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		const streams = 4
		for id := uint64(1); id <= streams; id++ {
			if err := srv.OpenStream(id, emssBuilder(4)); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for id := uint64(1); id <= streams; id++ {
			wg.Add(1)
			go func(id uint64) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if err := srv.Publish(id, []byte("racing")); err != nil {
						return // server or stream closed under us — fine
					}
				}
			}(id)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = srv.closeStream(2)
			_ = srv.closeStream(3)
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(iter%3) * time.Millisecond)
			if err := srv.Close(); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		// Idempotent second close must not panic or hang.
		_ = srv.Close()
	}
}

// TestPrioritySheddingPrefersSignatures fills a subscriber queue that
// nobody drains and checks the shedding policy: data packets drop once
// the queue reaches its reserve boundary, while the later signature
// packets land in the reserved tail. Losing a data packet costs one
// message; losing a signature packet can collapse a whole block, so under
// backpressure the queue must always have room for signatures.
func TestPrioritySheddingPrefersSignatures(t *testing.T) {
	key := crypto.NewSignerFromString("shed")
	reg := obs.NewRegistry()
	srv, err := New(Config{
		Signer:             key,
		MaxSubscriberQueue: 25,
		SigQueueReserve:    4,
		// 4 blocks fill the batch, so the signature packets are delivered
		// synchronously with the last block's root — after all the data.
		BatchSize:     4,
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
	if err := srv.OpenStream(1, emssBuilder(8)); err != nil {
		t.Fatal(err)
	}
	// 4 blocks of 8 messages. Each block emits 7 data-class packets plus a
	// held signature packet, so 28 data-class packets contend for the
	// 25-4=21 unreserved slots: 7 must shed.
	for i := 0; i < 32; i++ {
		if err := srv.Publish(1, []byte("backpressure")); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	var data, sigs int
	for d := range sub.C() {
		if sigClass(d.Packet) {
			sigs++
		} else {
			data++
		}
	}
	if data != 21 {
		t.Errorf("delivered %d data packets, want 21 (queue 25 minus reserve 4)", data)
	}
	if sigs != 4 {
		t.Errorf("delivered %d signature packets, want 4 (one per block)", sigs)
	}
	if got := reg.Counter("server.shed_data").Value(); got != 7 {
		t.Errorf("shed_data = %d, want 7", got)
	}
	if got := reg.Counter("server.shed_sig").Value(); got != 0 {
		t.Errorf("shed_sig = %d, want 0 — a signature was dropped under backpressure", got)
	}
}

// TestResumeFromReplaysVerifiableCatchUp publishes, waits for the batch
// signer to attach signatures, then asks the live server for a resume
// replay from block 0 — the session-resume path a reconnecting subscriber
// hits. The replay must authenticate end to end on a fresh receiver: both
// the data packets (retained at emit) and the signature packets (retained
// only once signed) have to be there.
func TestResumeFromReplaysVerifiableCatchUp(t *testing.T) {
	key := crypto.NewSignerFromString("resume")
	reg := obs.NewRegistry()
	srv, err := New(Config{
		Signer:        key,
		RepairBlocks:  8,
		BatchSize:     2,
		FlushInterval: time.Hour,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.OpenStream(1, emssBuilder(4)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ { // 2 blocks -> batch of 2 roots signs itself
		if err := srv.Publish(1, []byte("resume-me")); err != nil {
			t.Fatal(err)
		}
	}
	// The signature packets enter the repair store only after the batch
	// signs; wait for that rather than racing it.
	deadline := time.Now().Add(5 * time.Second)
	for srv.BatchTotals().SignedRoots < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("batch never signed: %+v", srv.BatchTotals())
		}
		time.Sleep(time.Millisecond)
	}

	pkts := srv.ResumeFrom(1, 0)
	if len(pkts) == 0 {
		t.Fatal("ResumeFrom(1, 0) replayed nothing")
	}
	if got := reg.Counter("server.resume_catchup_packets").Value(); got != int64(len(pkts)) {
		t.Errorf("resume_catchup_packets = %d, want %d", got, len(pkts))
	}
	if srv.ResumeFrom(99, 0) != nil {
		t.Error("ResumeFrom on an unknown stream returned packets")
	}

	sch, err := emssBuilder(4)(srv.schemeSigner())
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := stream.NewReceiver(sch, 16)
	if err != nil {
		t.Fatal(err)
	}
	authed := 0
	for _, p := range pkts {
		out, err := rcv.Ingest(p, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		authed += len(out)
	}
	if authed != 8 {
		t.Fatalf("replay authenticated %d of 8 messages", authed)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
