package transport

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
	"mcauth/internal/scheme/emss"
	"mcauth/internal/stream"
)

func testBlockPackets(t *testing.T, n int, blockID uint64) ([]*packet.Packet, *stream.Receiver) {
	t.Helper()
	s, err := emss.New(emss.Config{N: n, M: 2, D: 1}, crypto.NewSignerFromString("transport"))
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = fmt.Appendf(nil, "m%02d", i)
	}
	pkts, err := s.Authenticate(blockID, payloads)
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := stream.NewReceiver(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	return pkts, rcv
}

// TestFrameRoundTrip carries a whole EMSS block, hash references and
// signature included, through the mux framing.
func TestFrameRoundTrip(t *testing.T) {
	pkts, _ := testBlockPackets(t, 6, 1)
	var buf bytes.Buffer
	mw := NewMuxFrameWriter(&buf)
	for _, p := range pkts {
		if err := mw.WritePacket(uint64(p.Index), p); err != nil {
			t.Fatal(err)
		}
	}
	mr := NewMuxFrameReader(&buf)
	for _, want := range pkts {
		id, got, err := mr.ReadPacket()
		if err != nil {
			t.Fatal(err)
		}
		if got.Digest() != want.Digest() || got.Index != want.Index || id != uint64(want.Index) {
			t.Fatalf("frame round trip mismatch at index %d", want.Index)
		}
	}
	if _, _, err := mr.ReadPacket(); !errors.Is(err, io.EOF) {
		t.Errorf("end of stream err = %v, want io.EOF", err)
	}
}

func TestFrameReaderTruncation(t *testing.T) {
	pkts, _ := testBlockPackets(t, 4, 1)
	var buf bytes.Buffer
	if err := NewMuxFrameWriter(&buf).WritePacket(1, pkts[0]); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{1, 2, 3, len(full) - 1} {
		mr := NewMuxFrameReader(bytes.NewReader(full[:cut]))
		if _, _, err := mr.ReadPacket(); err == nil {
			t.Errorf("truncated frame at %d bytes should fail", cut)
		}
	}
}

func TestFrameReaderOversizeRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(binary.AppendUvarint(nil, 0xffffffff))
	if _, _, err := NewMuxFrameReader(&buf).ReadPacket(); err == nil {
		t.Error("oversize frame length should fail before allocation")
	}
}

func TestFrameWriterPropagatesErrors(t *testing.T) {
	pkts, _ := testBlockPackets(t, 4, 1)
	if err := NewMuxFrameWriter(failingWriter{}).WritePacket(1, pkts[0]); err == nil {
		t.Error("write error should propagate")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("sink failed") }

func TestFrameStreamThroughReceiver(t *testing.T) {
	// A byte-stream (TCP-like) session end to end, via net.Pipe.
	pkts, rcv := testBlockPackets(t, 8, 3)
	client, server := net.Pipe()
	errCh := make(chan error, 1)
	go func() {
		mw := NewMuxFrameWriter(client)
		for _, p := range pkts {
			if err := mw.WritePacket(3, p); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- client.Close()
	}()
	mr := NewMuxFrameReader(server)
	authenticated := 0
	for {
		_, p, err := mr.ReadPacket()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		events, err := rcv.Ingest(p, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		authenticated += len(events)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if authenticated != 8 {
		t.Errorf("authenticated %d, want 8", authenticated)
	}
}

func TestFrameMetrics(t *testing.T) {
	pkts, _ := testBlockPackets(t, 4, 1)
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	mw := NewMuxFrameWriter(&buf)
	mw.SetMetrics(reg)
	for _, p := range pkts {
		if err := mw.WritePacket(1, p); err != nil {
			t.Fatal(err)
		}
	}
	written := buf.Len()
	mr := NewMuxFrameReader(&buf)
	mr.SetMetrics(reg)
	for range pkts {
		if _, _, err := mr.ReadPacket(); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["transport.frames_written"]; got != int64(len(pkts)) {
		t.Errorf("frames_written = %d, want %d", got, len(pkts))
	}
	if got := snap.Counters["transport.frames_read"]; got != int64(len(pkts)) {
		t.Errorf("frames_read = %d, want %d", got, len(pkts))
	}
	if got := snap.Counters["transport.bytes_written"]; got != int64(written) {
		t.Errorf("bytes_written = %d, want %d", got, written)
	}
	if got := snap.Counters["transport.bytes_read"]; got != int64(written) {
		t.Errorf("bytes_read = %d, want %d", got, written)
	}
}

func TestShortReadCounted(t *testing.T) {
	pkts, _ := testBlockPackets(t, 4, 1)
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	if err := NewMuxFrameWriter(&buf).WritePacket(1, pkts[0]); err != nil {
		t.Fatal(err)
	}
	// Truncate mid-frame: the reader sees a short body read.
	truncated := buf.Bytes()[:buf.Len()-3]
	mr := NewMuxFrameReader(bytes.NewReader(truncated))
	mr.SetMetrics(reg)
	if _, _, err := mr.ReadPacket(); err == nil {
		t.Fatal("truncated frame should fail")
	}
	if got := reg.Snapshot().Counters["transport.short_reads"]; got != 1 {
		t.Errorf("short_reads = %d, want 1", got)
	}
}

func TestOversizeFrameCounted(t *testing.T) {
	reg := obs.NewRegistry()
	hdr := binary.AppendUvarint(nil, maxFrameSize+1)
	mr := NewMuxFrameReader(bytes.NewReader(hdr))
	mr.SetMetrics(reg)
	if _, _, err := mr.ReadPacket(); err == nil {
		t.Fatal("oversize frame should fail")
	}
	if got := reg.Snapshot().Counters["transport.oversize_frames"]; got != 1 {
		t.Errorf("oversize_frames = %d, want 1", got)
	}
}
