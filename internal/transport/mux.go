package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"mcauth/internal/obs"
	"mcauth/internal/packet"
)

// Multiplexed framing: one byte stream carrying packets from many
// authenticated streams, as the serving daemon (internal/server) emits
// them. Each frame is
//
//	[4B length][8B stream ID][packet encoding]
//
// where length counts the stream ID plus the packet encoding, so a plain
// frameReader pointed at a mux stream fails fast instead of mis-decoding.

// muxIDSize is the stream-ID prefix inside each mux frame.
const muxIDSize = 8

// MuxFrameWriter writes stream-tagged, length-prefixed packets to a byte
// stream. Like frameWriter it reuses one internal buffer and is not safe
// for concurrent use.
type MuxFrameWriter struct {
	w     io.Writer
	m     *wireMetrics
	spans *obs.SpanSink
	buf   []byte
}

// NewMuxFrameWriter wraps w.
func NewMuxFrameWriter(w io.Writer) *MuxFrameWriter { return &MuxFrameWriter{w: w} }

// SetMetrics enables transport.* accounting in reg (nil disables).
func (mw *MuxFrameWriter) SetMetrics(reg *obs.Registry) { mw.m = newWireMetrics(reg) }

// SetSpans records a mux_write span per framed packet into r (nil
// disables), marking the moment a packet leaves the serving process.
func (mw *MuxFrameWriter) SetSpans(r *obs.SpanSink) { mw.spans = r }

// WritePacket frames one packet under its stream ID with a single Write.
func (mw *MuxFrameWriter) WritePacket(streamID uint64, p *packet.Packet) error {
	// Reserve length prefix + stream ID, encode in place, patch the prefix.
	mw.buf = append(mw.buf[:0], make([]byte, 4+muxIDSize)...)
	binary.BigEndian.PutUint64(mw.buf[4:], streamID)
	buf, err := p.AppendEncode(mw.buf)
	if err != nil {
		return fmt.Errorf("transport: encode: %w", err)
	}
	mw.buf = buf
	frameLen := len(buf) - 4
	if frameLen-muxIDSize > maxFrameSize {
		if mw.m != nil {
			mw.m.oversizeFrames.Inc()
		}
		return fmt.Errorf("transport: frame %d exceeds %d bytes", frameLen-muxIDSize, maxFrameSize)
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(frameLen))
	if _, err := mw.w.Write(buf); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	if mw.m != nil {
		mw.m.framesWritten.Inc()
		mw.m.bytesWritten.Add(int64(len(buf)))
	}
	if mw.spans.Enabled() {
		mw.spans.Record(obs.Span{
			Kind:   obs.SpanMuxWrite,
			Stream: streamID,
			Block:  p.BlockID,
			Index:  p.Index,
			TimeNS: time.Now().UnixNano(),
		})
	}
	return nil
}

// MuxFrameReader reads stream-tagged, length-prefixed packets.
type MuxFrameReader struct {
	fr *frameReader
}

// NewMuxFrameReader wraps r.
func NewMuxFrameReader(r io.Reader) *MuxFrameReader {
	return &MuxFrameReader{fr: newFrameReader(r)}
}

// SetMetrics enables transport.* accounting in reg (nil disables).
func (mr *MuxFrameReader) SetMetrics(reg *obs.Registry) { mr.fr.setMetrics(reg) }

// ReadPacket reads one frame and returns the stream ID and decoded
// packet; io.EOF at a clean end of stream.
func (mr *MuxFrameReader) ReadPacket() (uint64, *packet.Packet, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(mr.fr.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) && mr.fr.m != nil {
			mr.fr.m.shortReads.Inc()
		}
		return 0, nil, fmt.Errorf("transport: read header: %w", err)
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size < muxIDSize {
		return 0, nil, fmt.Errorf("transport: mux frame %d bytes, need at least %d", size, muxIDSize)
	}
	if size-muxIDSize > maxFrameSize {
		if mr.fr.m != nil {
			mr.fr.m.oversizeFrames.Inc()
		}
		return 0, nil, fmt.Errorf("transport: frame %d exceeds %d bytes", size-muxIDSize, maxFrameSize)
	}
	var idBuf [muxIDSize]byte
	if _, err := io.ReadFull(mr.fr.r, idBuf[:]); err != nil {
		if mr.fr.m != nil {
			mr.fr.m.shortReads.Inc()
		}
		return 0, nil, fmt.Errorf("transport: read stream id: %w", err)
	}
	streamID := binary.BigEndian.Uint64(idBuf[:])
	wireSize := int(size) - muxIDSize
	wire := make([]byte, 0, min(wireSize, frameAllocChunk))
	for len(wire) < wireSize {
		chunk := min(wireSize-len(wire), frameAllocChunk)
		start := len(wire)
		wire = append(wire, make([]byte, chunk)...)
		if _, err := io.ReadFull(mr.fr.r, wire[start:]); err != nil {
			if mr.fr.m != nil {
				mr.fr.m.shortReads.Inc()
			}
			return 0, nil, fmt.Errorf("transport: read frame: %w", err)
		}
	}
	p, err := packet.Decode(wire)
	if err != nil {
		if mr.fr.m != nil {
			mr.fr.m.decodeErrors.Inc()
		}
		return 0, nil, fmt.Errorf("transport: %w", err)
	}
	if mr.fr.m != nil {
		mr.fr.m.framesRead.Inc()
		mr.fr.m.bytesRead.Add(int64(len(hdr) + muxIDSize + len(wire)))
	}
	return streamID, p, nil
}
