package stream

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mcauth/internal/packet"
)

// demuxFixture wires a demux whose every stream runs the 4-packet EMSS
// scheme, plus a sender factory sharing the key.
func demuxFixture(t *testing.T, maxStreams int) *Demux {
	t.Helper()
	dmx, err := NewDemux(func(id uint64) (*Receiver, error) {
		return NewReceiver(emssScheme(t, 4), 8)
	}, maxStreams)
	if err != nil {
		t.Fatal(err)
	}
	return dmx
}

// blockFor emits one authenticated block for a fresh sender.
func blockFor(t *testing.T, blockID uint64) []*packet.Packet {
	t.Helper()
	snd, err := NewSender(emssScheme(t, 4), blockID)
	if err != nil {
		t.Fatal(err)
	}
	var pkts []*packet.Packet
	for i := 0; i < 4; i++ {
		out, err := snd.Push([]byte(fmt.Sprintf("b%d-m%d", blockID, i)))
		if err != nil {
			t.Fatal(err)
		}
		pkts = out
	}
	return pkts
}

func TestDemuxRoutesInterleavedStreams(t *testing.T) {
	dmx := demuxFixture(t, 8)
	blocks := map[uint64][]*packet.Packet{
		10: blockFor(t, 0),
		20: blockFor(t, 0),
		30: blockFor(t, 0),
	}
	counts := map[uint64]int{}
	for i := 0; i < 4; i++ { // interleave round-robin
		for id, pkts := range blocks {
			auths, err := dmx.Ingest(id, pkts[i], time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range auths {
				if a.StreamID != id {
					t.Fatalf("auth tagged stream %d, want %d", a.StreamID, id)
				}
				counts[id]++
			}
		}
	}
	for id := range blocks {
		if counts[id] != 4 {
			t.Errorf("stream %d authenticated %d of 4", id, counts[id])
		}
	}
	if ids := dmx.StreamIDs(); len(ids) != 3 || ids[0] != 10 || ids[2] != 30 {
		t.Errorf("StreamIDs = %v", ids)
	}
	if dmx.Receiver(10) == nil || dmx.Receiver(99) != nil {
		t.Error("Receiver lookup wrong")
	}
	if tot := dmx.counters(); tot.ActiveStreams != 3 || tot.EvictedStreams != 0 {
		t.Errorf("totals %+v", tot)
	}
}

func TestDemuxEvictsColdestStream(t *testing.T) {
	dmx := demuxFixture(t, 2)
	pkts := blockFor(t, 0)
	for id := uint64(1); id <= 3; id++ {
		if _, err := dmx.Ingest(id, pkts[0], time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	if tot := dmx.counters(); tot.ActiveStreams != 2 || tot.EvictedStreams != 1 {
		t.Fatalf("totals %+v, want 2 active / 1 evicted", tot)
	}
	// Stream 1 was coldest and must be gone; 2 and 3 remain.
	if dmx.Receiver(1) != nil {
		t.Error("coldest stream not evicted")
	}
	if dmx.Receiver(2) == nil || dmx.Receiver(3) == nil {
		t.Error("warm streams evicted")
	}
	// Touching 2 makes 3 the coldest for the next eviction.
	if _, err := dmx.Ingest(2, pkts[1], time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := dmx.Ingest(4, pkts[0], time.Time{}); err != nil {
		t.Fatal(err)
	}
	if dmx.Receiver(3) != nil {
		t.Error("LRU order not honored")
	}
	if dmx.Receiver(2) == nil {
		t.Error("recently touched stream evicted")
	}
}

func TestDemuxRejectedStreams(t *testing.T) {
	dmx, err := NewDemux(func(id uint64) (*Receiver, error) {
		if id >= 100 {
			return nil, errors.New("not on the allow-list")
		}
		return NewReceiver(emssScheme(t, 4), 8)
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	pkts := blockFor(t, 0)
	if auths, err := dmx.Ingest(500, pkts[0], time.Time{}); err != nil || auths != nil {
		t.Fatalf("rejected stream: %v, %v", auths, err)
	}
	if auths, err := dmx.Ingest(501, pkts[0], time.Time{}); err != nil || auths != nil {
		t.Fatalf("rejected stream: %v, %v", auths, err)
	}
	if tot := dmx.counters(); tot.RejectedStreams != 2 {
		t.Fatalf("rejected %d, want 2", tot.RejectedStreams)
	}
}

func TestDemuxValidation(t *testing.T) {
	if _, err := NewDemux(nil, 1); err == nil {
		t.Error("nil factory accepted")
	}
	if _, err := NewDemux(func(uint64) (*Receiver, error) { return nil, nil }, 0); err == nil {
		t.Error("zero maxStreams accepted")
	}
	dmx, err := NewDemux(func(uint64) (*Receiver, error) { return nil, nil }, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dmx.Ingest(1, blockFor(t, 0)[0], time.Time{}); err == nil {
		t.Error("nil receiver from factory accepted")
	}
}

// churnBlocks emits n consecutive blocks from one long-lived sender, so
// later blocks genuinely depend on a receiver's ability to join
// mid-stream (each block carries its own signature packet under EMSS).
func churnBlocks(t *testing.T, n int) [][]*packet.Packet {
	t.Helper()
	snd, err := NewSender(emssScheme(t, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([][]*packet.Packet, 0, n)
	for b := 0; b < n; b++ {
		var pkts []*packet.Packet
		for i := 0; i < 4; i++ {
			out, err := snd.Push([]byte(fmt.Sprintf("b%d-m%d", b, i)))
			if err != nil {
				t.Fatal(err)
			}
			pkts = out
		}
		blocks = append(blocks, pkts)
	}
	return blocks
}

// feed ingests one block's packets for a stream and returns how many
// messages authenticated.
func feed(t *testing.T, dmx *Demux, id uint64, pkts []*packet.Packet) int {
	t.Helper()
	auths := 0
	for _, p := range pkts {
		out, err := dmx.Ingest(id, p, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		auths += len(out)
	}
	return auths
}

// TestDemuxChurn exercises subscriber churn against a bounded demux: a
// late joiner entering mid-stream, an evicted stream re-joining after its
// state was dropped, and an explicit leave/re-join via Close. Every
// (re)joined stream must authenticate the blocks it sees after joining.
func TestDemuxChurn(t *testing.T) {
	dmx := demuxFixture(t, 2)
	blocks := churnBlocks(t, 4)

	// Stream 1 joins at the start and follows the whole stream.
	if got := feed(t, dmx, 1, blocks[0]); got != 4 {
		t.Fatalf("stream 1 block 0: authenticated %d of 4", got)
	}
	// Late join: stream 2's first packet is from block 2 — blocks 0 and 1
	// were never seen. It must still authenticate from there on.
	if got := feed(t, dmx, 2, blocks[2]); got != 4 {
		t.Fatalf("late joiner: authenticated %d of 4 on its first block", got)
	}

	// Churn past the cap: stream 3 joins, evicting the coldest (stream 1).
	if got := feed(t, dmx, 3, blocks[3]); got != 4 {
		t.Fatalf("stream 3: authenticated %d of 4", got)
	}
	if dmx.Receiver(1) != nil {
		t.Fatal("stream 1 should have been evicted")
	}
	if tot := dmx.counters(); tot.EvictedStreams != 1 {
		t.Fatalf("evictions = %d, want 1", tot.EvictedStreams)
	}

	// Re-join after evict: stream 1 comes back with fresh state (its
	// receiver was dropped) and picks the stream up at block 3.
	if got := feed(t, dmx, 1, blocks[3]); got != 4 {
		t.Fatalf("re-joined stream 1: authenticated %d of 4", got)
	}

	// Explicit leave: Close drops the state immediately; the same ID can
	// rejoin through the factory afterwards.
	if !dmx.closeStream(1) {
		t.Fatal("closeStream(1) found no stream")
	}
	if dmx.closeStream(1) {
		t.Fatal("second closeStream(1) claimed to drop state again")
	}
	if dmx.Receiver(1) != nil {
		t.Fatal("closed stream still live")
	}
	if got := feed(t, dmx, 1, blocks[2]); got != 4 {
		t.Fatalf("stream 1 after Close: authenticated %d of 4", got)
	}
}

// TestDemuxResumePoints checks the resume cursors a reconnecting
// subscriber sends in its hello: 0 for streams that never authenticated
// (ask for everything), else the highest block that produced at least one
// authenticated message (re-requested, since it may be partial).
func TestDemuxResumePoints(t *testing.T) {
	dmx := demuxFixture(t, 4)
	blocks := churnBlocks(t, 3)

	// Stream 1 authenticates through block 2; stream 2 only block 0;
	// stream 3 sees a single packet and authenticates nothing.
	feed(t, dmx, 1, blocks[0])
	feed(t, dmx, 1, blocks[2])
	feed(t, dmx, 2, blocks[0])
	if _, err := dmx.Ingest(3, blocks[1][0], time.Time{}); err != nil {
		t.Fatal(err)
	}

	r := dmx.Receiver(1)
	if from, ok := r.ResumeFrom(); !ok || from != 2 {
		t.Fatalf("stream 1 ResumeFrom = (%d, %v), want (2, true)", from, ok)
	}
	if from, ok := dmx.Receiver(3).ResumeFrom(); ok || from != 0 {
		t.Fatalf("unauthenticated ResumeFrom = (%d, %v), want (0, false)", from, ok)
	}

	pts := dmx.ResumePoints()
	want := map[uint64]uint64{1: 2, 2: 0, 3: 0}
	if len(pts) != len(want) {
		t.Fatalf("ResumePoints = %v, want %v", pts, want)
	}
	for id, from := range want {
		if pts[id] != from {
			t.Errorf("ResumePoints[%d] = %d, want %d", id, pts[id], from)
		}
	}
}
