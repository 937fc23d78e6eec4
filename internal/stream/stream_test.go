package stream

import (
	"fmt"
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/packet"
	"mcauth/internal/scheme"
	"mcauth/internal/scheme/emss"
	"mcauth/internal/scheme/tesla"
	"mcauth/internal/stats"
	"mcauth/internal/verifier"
)

func emssScheme(t *testing.T, n int) scheme.Scheme {
	t.Helper()
	s, err := emss.New(emss.Config{N: n, M: 2, D: 1}, crypto.NewSignerFromString("stream"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSenderBlocksOnBoundary(t *testing.T) {
	s := emssScheme(t, 4)
	snd, err := NewSender(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		pkts, err := snd.Push([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if pkts != nil {
			t.Fatalf("block emitted after %d pushes", i+1)
		}
	}
	if snd.Pending() != 3 {
		t.Errorf("Pending = %d, want 3", snd.Pending())
	}
	pkts, err := snd.Push([]byte{3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 4 {
		t.Fatalf("emitted %d packets, want 4", len(pkts))
	}
	if pkts[0].BlockID != 10 {
		t.Errorf("block ID %d, want 10", pkts[0].BlockID)
	}
	if snd.NextBlockID() != 11 {
		t.Errorf("NextBlockID = %d, want 11", snd.NextBlockID())
	}
}

func TestSenderFlushPads(t *testing.T) {
	s := emssScheme(t, 4)
	snd, err := NewSender(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snd.Push([]byte("only")); err != nil {
		t.Fatal(err)
	}
	pkts, err := snd.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 4 {
		t.Fatalf("flushed %d packets, want 4 (padded)", len(pkts))
	}
	// Flushing again is a no-op.
	pkts, err = snd.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if pkts != nil {
		t.Error("second flush should emit nothing")
	}
}

func TestSenderValidation(t *testing.T) {
	if _, err := NewSender(nil, 0); err == nil {
		t.Error("nil scheme should fail")
	}
	if _, err := NewReceiver(nil, 4); err == nil {
		t.Error("nil scheme should fail")
	}
	if _, err := NewReceiver(emssScheme(t, 4), 0); err == nil {
		t.Error("maxBlocks 0 should fail")
	}
}

func TestMultiBlockRoundTrip(t *testing.T) {
	s := emssScheme(t, 5)
	snd, err := NewSender(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	var wirePackets []*packet.Packet
	const messages = 20 // 4 blocks
	for i := 0; i < messages; i++ {
		pkts, err := snd.Push(fmt.Appendf(nil, "msg-%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		wirePackets = append(wirePackets, pkts...)
	}
	got := make(map[string]bool)
	for _, p := range wirePackets {
		wire, err := p.Encode()
		if err != nil {
			t.Fatal(err)
		}
		events, err := rcv.IngestWire(wire, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			got[string(e.Payload)] = true
		}
	}
	for i := 0; i < messages; i++ {
		if !got[fmt.Sprintf("msg-%02d", i)] {
			t.Errorf("message %d never authenticated", i)
		}
	}
	totals := rcv.Totals()
	if totals.Authenticated != messages {
		t.Errorf("Authenticated = %d, want %d", totals.Authenticated, messages)
	}
	if totals.DecodeErrors != 0 || totals.Rejected != 0 {
		t.Errorf("unexpected errors in totals %+v", totals)
	}
}

func TestInterleavedBlocks(t *testing.T) {
	// Packets of two blocks arrive interleaved; both must verify fully.
	s := emssScheme(t, 4)
	snd, err := NewSender(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	var blockA, blockB []*packet.Packet
	for i := 0; i < 4; i++ {
		pkts, err := snd.Push([]byte{0xA0, byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		blockA = append(blockA, pkts...)
	}
	for i := 0; i < 4; i++ {
		pkts, err := snd.Push([]byte{0xB0, byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		blockB = append(blockB, pkts...)
	}
	rcv, err := NewReceiver(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	authenticated := 0
	for i := 0; i < 4; i++ {
		for _, p := range []*packet.Packet{blockA[i], blockB[i]} {
			events, err := rcv.Ingest(p, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			authenticated += len(events)
		}
	}
	if authenticated != 8 {
		t.Errorf("authenticated %d, want 8", authenticated)
	}
	if rcv.Totals().ActiveBlocks != 2 {
		t.Errorf("ActiveBlocks = %d, want 2", rcv.Totals().ActiveBlocks)
	}
}

func TestEvictionBoundsState(t *testing.T) {
	s := emssScheme(t, 4)
	snd, err := NewSender(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Send the first packet only of 5 different blocks: state for at
	// most 2 may remain.
	for b := 0; b < 5; b++ {
		var first *packet.Packet
		for i := 0; i < 4; i++ {
			pkts, err := snd.Push([]byte{byte(b), byte(i)})
			if err != nil {
				t.Fatal(err)
			}
			if pkts != nil {
				first = pkts[0]
			}
		}
		if _, err := rcv.Ingest(first, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	totals := rcv.Totals()
	if totals.ActiveBlocks > 2 {
		t.Errorf("ActiveBlocks = %d, want <= 2", totals.ActiveBlocks)
	}
	if totals.EvictedBlocks != 3 {
		t.Errorf("EvictedBlocks = %d, want 3", totals.EvictedBlocks)
	}
}

func TestEvictedBlockPacketsDropped(t *testing.T) {
	s := emssScheme(t, 4)
	snd, err := NewSender(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	var blocks [][]*packet.Packet
	for b := 0; b < 3; b++ {
		var blk []*packet.Packet
		for i := 0; i < 4; i++ {
			pkts, err := snd.Push([]byte{byte(b), byte(i)})
			if err != nil {
				t.Fatal(err)
			}
			blk = append(blk, pkts...)
		}
		blocks = append(blocks, blk)
	}
	rcv, err := NewReceiver(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Touch blocks 1, 2, 3 in order: 1 then 2 evicts nothing (cap 1
	// evicts 1 when 2 arrives), etc.
	if _, err := rcv.Ingest(blocks[0][0], time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := rcv.Ingest(blocks[1][0], time.Time{}); err != nil {
		t.Fatal(err)
	}
	// Block 1 is now evicted; delivering the rest of it yields nothing.
	for _, p := range blocks[0][1:] {
		events, err := rcv.Ingest(p, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if len(events) != 0 {
			t.Fatal("evicted block produced events")
		}
	}
}

func TestCloseBlock(t *testing.T) {
	s := emssScheme(t, 4)
	snd, err := NewSender(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	var blk []*packet.Packet
	for i := 0; i < 4; i++ {
		pkts, err := snd.Push([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		blk = append(blk, pkts...)
	}
	rcv, err := NewReceiver(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rcv.Ingest(blk[0], time.Time{}); err != nil {
		t.Fatal(err)
	}
	rcv.CloseBlock(7)
	rcv.CloseBlock(999) // unknown: no-op
	events, err := rcv.Ingest(blk[1], time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Error("closed block produced events")
	}
	if rcv.Totals().ActiveBlocks != 0 {
		t.Errorf("ActiveBlocks = %d, want 0", rcv.Totals().ActiveBlocks)
	}
}

func TestDecodeErrorsCounted(t *testing.T) {
	rcv, err := NewReceiver(emssScheme(t, 4), 2)
	if err != nil {
		t.Fatal(err)
	}
	events, err := rcv.IngestWire([]byte{1, 2, 3}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Error("garbage produced events")
	}
	if rcv.Totals().DecodeErrors != 1 {
		t.Errorf("DecodeErrors = %d, want 1", rcv.Totals().DecodeErrors)
	}
	if _, err := rcv.Ingest(nil, time.Time{}); err == nil {
		t.Error("nil packet should error")
	}
}

func TestTamperedCounted(t *testing.T) {
	s := emssScheme(t, 4)
	snd, err := NewSender(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	var blk []*packet.Packet
	for i := 0; i < 4; i++ {
		pkts, err := snd.Push([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		blk = append(blk, pkts...)
	}
	rcv, err := NewReceiver(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Deliver the signature packet and P3 (which carries H(P1)) first,
	// so the tampered copy of P1 is rejected on arrival rather than
	// buffered.
	if _, err := rcv.Ingest(blk[3], time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := rcv.Ingest(blk[2], time.Time{}); err != nil {
		t.Fatal(err)
	}
	evil := *blk[0]
	evil.Payload = []byte("evil")
	if _, err := rcv.Ingest(&evil, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if rcv.Totals().Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", rcv.Totals().Rejected)
	}
}

func TestTESLAMultiBlockStreaming(t *testing.T) {
	cfg := tesla.Config{
		N:        6,
		Lag:      2,
		Interval: 10 * time.Millisecond,
		Start:    time.Unix(100, 0),
		Seed:     []byte("stream"),
	}
	s, err := tesla.New(cfg, crypto.NewSignerFromString("stream"))
	if err != nil {
		t.Fatal(err)
	}
	snd, err := NewSender(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	authenticated := 0
	clock := cfg.Start
	for b := 0; b < 3; b++ {
		var pkts []*packet.Packet
		for i := 0; i < 6; i++ {
			out, err := snd.Push(fmt.Appendf(nil, "blk%d-msg%d", b, i))
			if err != nil {
				t.Fatal(err)
			}
			pkts = append(pkts, out...)
		}
		for _, p := range pkts {
			clock = clock.Add(cfg.Interval)
			events, err := rcv.Ingest(p, clock)
			if err != nil {
				t.Fatal(err)
			}
			authenticated += len(events)
		}
		// Each block uses a fresh chain; arrival clock continues but
		// blocks are self-contained, so restart the schedule base.
		clock = cfg.Start
	}
	if authenticated != 18 {
		t.Errorf("authenticated %d, want 18", authenticated)
	}
}

func TestStreamRandomizedDeliveryProperty(t *testing.T) {
	// Shuffle all packets of 3 blocks together; with no loss everything
	// authenticates regardless of order.
	s := emssScheme(t, 6)
	snd, err := NewSender(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	var all []*packet.Packet
	for i := 0; i < 18; i++ {
		pkts, err := snd.Push([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, pkts...)
	}
	rng := stats.NewRNG(5)
	for trial := 0; trial < 20; trial++ {
		shuffled := append([]*packet.Packet(nil), all...)
		for i := len(shuffled) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		}
		rcv, err := NewReceiver(s, 3)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for _, p := range shuffled {
			events, err := rcv.Ingest(p, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			count += len(events)
		}
		if count != 18 {
			t.Fatalf("trial %d: authenticated %d, want 18", trial, count)
		}
	}
}

func TestClosedTombstonesBounded(t *testing.T) {
	// Streaming thousands of blocks through a small receiver must not
	// accumulate unbounded eviction tombstones.
	s := emssScheme(t, 4)
	snd, err := NewSender(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 500; b++ {
		var first *packet.Packet
		for i := 0; i < 4; i++ {
			pkts, err := snd.Push([]byte{byte(b), byte(i)})
			if err != nil {
				t.Fatal(err)
			}
			if pkts != nil {
				first = pkts[0]
			}
		}
		if _, err := rcv.Ingest(first, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(rcv.closed); got > closedTombstonesPerBlock*2 {
		t.Errorf("tombstone set grew to %d entries", got)
	}
	if rcv.Totals().EvictedBlocks != 498 {
		t.Errorf("EvictedBlocks = %d, want 498", rcv.Totals().EvictedBlocks)
	}
}

func TestInvalidPacketToleratedNotFatal(t *testing.T) {
	// A forged datagram with an out-of-range index must be counted, not
	// kill the stream: later genuine packets still authenticate.
	s := emssScheme(t, 4)
	rcv, err := NewReceiver(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := s.Authenticate(1, [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")})
	if err != nil {
		t.Fatal(err)
	}
	evil := &packet.Packet{BlockID: 1, Index: 9999, Payload: []byte("forged")}
	if _, err := rcv.Ingest(evil, time.Unix(0, 0)); err != nil {
		t.Fatalf("adversarial packet must not error the stream: %v", err)
	}
	var authed int
	for _, p := range pkts {
		evs, err := rcv.Ingest(p, time.Unix(0, 0))
		if err != nil {
			t.Fatal(err)
		}
		authed += len(evs)
	}
	if authed != 4 {
		t.Errorf("authenticated %d after adversarial packet, want 4", authed)
	}
	if got := rcv.Totals().InvalidPackets; got != 1 {
		t.Errorf("InvalidPackets = %d, want 1", got)
	}
}

func TestMaxBufferedPerBlockBoundsFlood(t *testing.T) {
	// Distinct unverifiable packets for one block must stop accumulating
	// at the per-block cap.
	s := emssScheme(t, 64)
	rcv, err := NewReceiver(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	setEnv(t, rcv, verifier.Env{MaxBuffered: 8})
	if err := rcv.SetEnv(verifier.Env{MaxBuffered: -1}); err == nil {
		t.Error("negative cap should fail")
	}
	payloads := make([][]byte, 64)
	for i := range payloads {
		payloads[i] = []byte{byte(i)}
	}
	pkts, err := s.Authenticate(1, payloads)
	if err != nil {
		t.Fatal(err)
	}
	// Flood with every packet except the signature: all buffer.
	for _, p := range pkts[:len(pkts)-1] {
		if _, err := rcv.Ingest(p, time.Unix(0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	st := rcv.verifiers[1].Stats()
	if st.MsgBufferHighWater > 8 {
		t.Errorf("per-block high water %d exceeds cap 8", st.MsgBufferHighWater)
	}
	if st.DroppedOverflow == 0 {
		t.Error("flood should have triggered overflow drops")
	}
}
