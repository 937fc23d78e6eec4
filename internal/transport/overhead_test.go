package transport

import (
	"bytes"
	"fmt"
	"testing"

	"mcauth/internal/catalog"
	"mcauth/internal/crypto"
	"mcauth/internal/packet"
	"mcauth/internal/scheme"
)

// TestWireOverheadCeiling holds the wire cost of the serving mix, the way
// the alloc ceilings hold allocations: one 8-packet block of each scheme
// mcserved's "mixed" rotation serves, with 256-byte payloads and the held
// roots signed as 3 of a full 64-root batch, framed through
// MuxFrameWriter. The bytes per packet beyond the payload (header, block
// and index fields, hash references and signature blobs) may not exceed
// 1.05 times what the varint wire measures:
//
//	B/pkt     fixed-width wire   varint wire
//	emss            143.625         99.125
//	rohatgi         116.625         74.375
//	authtree        425.000        372.000
//	signeach        116.000         77.000
//
// so a fixed-width field creeping back into the packet, the framing or
// the batch-signature blob fails here.
func TestWireOverheadCeiling(t *testing.T) {
	measured := map[string]float64{
		"emss":     99.125,
		"rohatgi":  74.375,
		"authtree": 372.000,
		"signeach": 77.000,
	}
	const n, payloadSize = 8, 256
	signer := crypto.BatchCapable(crypto.NewSignerFromString("wire-overhead"))
	batch, err := crypto.NewBatchSigner(signer, 64)
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i)}, payloadSize)
	}
	ids := []string{"emss", "rohatgi", "authtree", "signeach"}
	blocks := make([][]*packet.Packet, len(ids))
	for i, id := range ids {
		entry, err := catalog.Build(catalog.Spec{ID: id, N: n, M: 2, D: 1, A: 2, B: 2}, signer)
		if err != nil {
			t.Fatal(err)
		}
		da, deferred := entry.Scheme.(scheme.DeferredAuthenticator)
		if !deferred {
			if blocks[i], err = entry.Scheme.Authenticate(1, payloads); err != nil {
				t.Fatal(err)
			}
			continue
		}
		pkts, root, err := da.AuthenticateDeferred(1, payloads)
		if err != nil {
			t.Fatal(err)
		}
		blocks[i] = pkts
		if _, err := batch.Enqueue(root.Content, root.Attach); err != nil {
			t.Fatal(err)
		}
	}
	// Other streams' roots fill the batch, which signs at its 64th.
	for k := 0; ; k++ {
		pending, err := batch.Enqueue(fmt.Appendf(nil, "root %d", k), func([]byte) {})
		if err != nil {
			t.Fatal(err)
		}
		if pending == 0 {
			break
		}
	}
	for i, id := range ids {
		var wire bytes.Buffer
		mw := NewMuxFrameWriter(&wire)
		for _, p := range blocks[i] {
			if err := mw.WritePacket(uint64(i), p); err != nil {
				t.Fatal(err)
			}
		}
		got := float64(wire.Len()-n*payloadSize) / n
		if ceiling := 1.05 * measured[id]; got > ceiling {
			t.Errorf("%s: %.3f wire bytes per packet beyond the payload, ceiling %.3f (1.05 x %.3f)", id, got, ceiling, measured[id])
		}
	}
}
