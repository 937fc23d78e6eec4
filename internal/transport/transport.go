// Package transport carries authenticated stream packets over byte-stream
// connections (TCP, pipes): the stream-tagged, length-prefixed mux framing
// (mux.go) around internal/packet's encoding, plus the resume hello
// (session.go) and the RepairStore that answers it (recovery.go).
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"mcauth/internal/obs"
	"mcauth/internal/packet"
)

// maxFrameSize bounds a frame's length prefix: the stream ID plus the
// packet encoding.
const maxFrameSize = 1 << 21 // 2 MiB: payload cap plus headers

// frameAllocChunk caps how much a frame read allocates before frame bytes
// actually arrive: the length prefix is attacker-controlled on a raw
// stream, so the buffer grows chunk by chunk as data is read instead of
// trusting the prefix — a lying 2 MiB header backed by a truncated stream
// costs one chunk, not 2 MiB.
const frameAllocChunk = 64 * 1024

var (
	errVarintOverflow   = errors.New("transport: varint overflows 64 bits")
	errVarintNonMinimal = errors.New("transport: varint is not minimal")
)

// readUvarint reads one minimal unsigned varint from r and returns it with
// the number of bytes it took. It returns io.EOF only when r ends before
// the first byte, io.ErrUnexpectedEOF when it ends inside the varint, and
// rejects overlong encodings, so every header has one wire form.
func readUvarint(r io.ByteReader) (uint64, int, error) {
	var v uint64
	for n := 0; n < binary.MaxVarintLen64; n++ {
		b, err := r.ReadByte()
		if err != nil {
			if n > 0 && errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return 0, n, err
		}
		if n == binary.MaxVarintLen64-1 && b > 1 {
			return 0, n + 1, errVarintOverflow
		}
		v |= uint64(b&0x7f) << (7 * n)
		if b < 0x80 {
			if n > 0 && b == 0 {
				return 0, n + 1, errVarintNonMinimal
			}
			return v, n + 1, nil
		}
	}
	return 0, binary.MaxVarintLen64, errVarintOverflow
}

// wireMetrics caches the transport.* instruments of the mux framing; a nil
// *wireMetrics (the default) disables all accounting.
type wireMetrics struct {
	framesWritten  *obs.Counter
	bytesWritten   *obs.Counter
	framesRead     *obs.Counter
	bytesRead      *obs.Counter
	shortReads     *obs.Counter
	oversizeFrames *obs.Counter
	decodeErrors   *obs.Counter
}

func newWireMetrics(reg *obs.Registry) *wireMetrics {
	if reg == nil {
		return nil
	}
	return &wireMetrics{
		framesWritten:  reg.Counter("transport.frames_written"),
		bytesWritten:   reg.Counter("transport.bytes_written"),
		framesRead:     reg.Counter("transport.frames_read"),
		bytesRead:      reg.Counter("transport.bytes_read"),
		shortReads:     reg.Counter("transport.short_reads"),
		oversizeFrames: reg.Counter("transport.oversize_frames"),
		decodeErrors:   reg.Counter("transport.decode_errors"),
	}
}

// frameReader reads the length-prefixed frames the mux framing wraps
// around each packet from a byte stream.
type frameReader struct {
	r *bufio.Reader
	m *wireMetrics
}

// newFrameReader wraps r.
func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: bufio.NewReader(r)}
}

// setMetrics enables transport.* accounting in reg (nil disables).
func (fr *frameReader) setMetrics(reg *obs.Registry) { fr.m = newWireMetrics(reg) }

// readLength reads a frame's length prefix and returns it with the
// prefix's own length. It returns io.EOF at a clean end of stream and
// rejects a prefix over maxFrameSize before any frame byte is read.
func (fr *frameReader) readLength() (size, hdrLen int, err error) {
	v, hdrLen, err := readUvarint(fr.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return 0, 0, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) && fr.m != nil {
			fr.m.shortReads.Inc()
		}
		return 0, 0, fmt.Errorf("transport: read header: %w", err)
	}
	if v > maxFrameSize {
		if fr.m != nil {
			fr.m.oversizeFrames.Inc()
		}
		return 0, 0, fmt.Errorf("transport: frame %d exceeds %d bytes", v, maxFrameSize)
	}
	return int(v), hdrLen, nil
}

// readBody reads size bytes of packet encoding, growing its buffer chunk
// by chunk as they arrive, and decodes them. frameBytes is the whole
// frame's length on the wire, for transport.bytes_read.
func (fr *frameReader) readBody(size, frameBytes int) (*packet.Packet, error) {
	wire := make([]byte, 0, min(size, frameAllocChunk))
	for len(wire) < size {
		chunk := min(size-len(wire), frameAllocChunk)
		start := len(wire)
		wire = append(wire, make([]byte, chunk)...)
		if _, err := io.ReadFull(fr.r, wire[start:]); err != nil {
			if fr.m != nil {
				fr.m.shortReads.Inc()
			}
			return nil, fmt.Errorf("transport: read frame: %w", err)
		}
	}
	p, err := packet.Decode(wire)
	if err != nil {
		if fr.m != nil {
			fr.m.decodeErrors.Inc()
		}
		return nil, fmt.Errorf("transport: %w", err)
	}
	if fr.m != nil {
		fr.m.framesRead.Inc()
		fr.m.bytesRead.Add(int64(frameBytes))
	}
	return p, nil
}
