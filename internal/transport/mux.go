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
//	[uvarint length][uvarint stream ID][packet encoding]
//
// where length counts the stream ID plus the packet encoding and both
// varints are minimal, so every frame has one wire form.

// MuxFrameWriter writes stream-tagged, length-prefixed packets to a byte
// stream. It reuses one internal buffer and is not safe for concurrent
// use.
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
	var id [binary.MaxVarintLen64]byte
	idLen := binary.PutUvarint(id[:], streamID)
	frameLen := idLen + p.EncodedSize()
	buf := append(binary.AppendUvarint(mw.buf[:0], uint64(frameLen)), id[:idLen]...)
	buf, err := p.AppendEncode(buf)
	if err != nil {
		return fmt.Errorf("transport: encode: %w", err)
	}
	mw.buf = buf
	if frameLen > maxFrameSize {
		if mw.m != nil {
			mw.m.oversizeFrames.Inc()
		}
		return fmt.Errorf("transport: frame %d exceeds %d bytes", frameLen, maxFrameSize)
	}
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
	size, hdrLen, err := mr.fr.readLength()
	if err != nil {
		return 0, nil, err
	}
	streamID, idLen, err := readUvarint(mr.fr.r)
	if errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF // the length prefix promised a frame
	}
	if err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) && mr.fr.m != nil {
			mr.fr.m.shortReads.Inc()
		}
		return 0, nil, fmt.Errorf("transport: read stream id: %w", err)
	}
	if idLen > size {
		return 0, nil, fmt.Errorf("transport: mux frame %d bytes, shorter than its %d-byte stream ID", size, idLen)
	}
	p, err := mr.fr.readBody(size-idLen, hdrLen+size)
	if err != nil {
		return 0, nil, err
	}
	return streamID, p, nil
}
