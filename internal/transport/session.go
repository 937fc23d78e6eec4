// Session resume: a reconnecting subscriber should not restart from
// nothing. On connect it sends one hello frame naming, per stream, the
// first block it still wants; the server replays catch-up packets from its
// RepairStore before switching to live delivery. The hello is required: a
// server that reads anything else (or nothing, within a short deadline)
// closes the connection.

package transport

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Hello wire format:
//
//	[4B magic "MCHI"][1B version][2B count] then count x [8B stream ID][8B from]
//
// where from is the first block ID the subscriber wants replayed (0 means
// everything the server still retains).
const (
	helloMagic   = "MCHI"
	helloVersion = 1
	helloHdrSize = 4 + 1 + 2
	helloPtSize  = 16
	// maxHelloPoints bounds what a server will parse from one hello, so a
	// hostile client cannot demand unbounded allocation.
	maxHelloPoints = 4096
)

// ResumePoint names where one stream's replay should start.
type ResumePoint struct {
	StreamID uint64
	// From is the first block ID wanted; 0 requests everything retained.
	From uint64
}

// WriteHello sends a resume hello for the given points. An empty points
// slice is valid: it announces a resume-capable subscriber that wants only
// live traffic.
func WriteHello(w io.Writer, points []ResumePoint) error {
	if len(points) > maxHelloPoints {
		return fmt.Errorf("transport: hello with %d resume points exceeds %d", len(points), maxHelloPoints)
	}
	buf := make([]byte, helloHdrSize+len(points)*helloPtSize)
	copy(buf, helloMagic)
	buf[4] = helloVersion
	binary.BigEndian.PutUint16(buf[5:], uint16(len(points)))
	off := helloHdrSize
	for _, pt := range points {
		binary.BigEndian.PutUint64(buf[off:], pt.StreamID)
		binary.BigEndian.PutUint64(buf[off+8:], pt.From)
		off += helloPtSize
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("transport: write hello: %w", err)
	}
	return nil
}

// ReadHello parses a resume hello from r. It reads exactly the hello's
// bytes on success; on any mismatch (wrong magic, bad version, oversized
// count, short read) it returns an error, and the caller drops the
// connection. Callers should set a read deadline: a silent client
// otherwise blocks here forever.
func ReadHello(r io.Reader) ([]ResumePoint, error) {
	var hdr [helloHdrSize]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return nil, fmt.Errorf("transport: read hello: %w", err)
	}
	if string(hdr[:4]) != helloMagic {
		return nil, fmt.Errorf("transport: hello magic %q, want %q", hdr[:4], helloMagic)
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return nil, fmt.Errorf("transport: read hello: %w", err)
	}
	if hdr[4] != helloVersion {
		return nil, fmt.Errorf("transport: hello version %d, want %d", hdr[4], helloVersion)
	}
	count := int(binary.BigEndian.Uint16(hdr[5:]))
	if count > maxHelloPoints {
		return nil, fmt.Errorf("transport: hello with %d resume points exceeds %d", count, maxHelloPoints)
	}
	points := make([]ResumePoint, count)
	body := make([]byte, count*helloPtSize)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("transport: read hello points: %w", err)
	}
	for i := range points {
		off := i * helloPtSize
		points[i].StreamID = binary.BigEndian.Uint64(body[off:])
		points[i].From = binary.BigEndian.Uint64(body[off+8:])
	}
	return points, nil
}
