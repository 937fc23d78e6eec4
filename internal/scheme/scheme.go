// Package scheme defines the common interface of runnable multicast
// authentication schemes and a generic implementation for any hash-chained
// (signature-amortizing) topology. Concrete constructions live in
// sub-packages: rohatgi, emss, augchain (hash-chained topologies), authtree
// (Wong-Lam), tesla (MAC + delayed key disclosure) and signeach (the
// sign-every-packet baseline).
package scheme

import (
	"time"

	"mcauth/internal/depgraph"
	"mcauth/internal/packet"
	"mcauth/internal/verifier"
)

// Scheme authenticates blocks of a packet stream and exposes its
// dependence-graph for analysis.
type Scheme interface {
	// Name identifies the scheme in reports, e.g. "emss(E_{2,1})".
	Name() string
	// BlockSize returns the number of payloads per block.
	BlockSize() int
	// WireCount returns the number of wire packets emitted per block
	// (BlockSize, plus one bootstrap packet for TESLA).
	WireCount() int
	// Authenticate builds the wire packets for one block, in send order.
	// len(payloads) must equal BlockSize.
	Authenticate(blockID uint64, payloads [][]byte) ([]*packet.Packet, error)
	// Graph returns the scheme's dependence-graph (Definition 1) with
	// vertices numbered in send order. For TESLA the graph uses the
	// split message/key vertex encoding of Section 3.2.
	Graph() (*depgraph.Graph, error)
	// NewVerifier creates a fresh receiver-side verifier for one block,
	// configured by env until its next Reset; the zero Env is the
	// synchronous, unbounded, unobserved verifier. Every scheme builds it
	// as its zero verifier followed by Reset(env), so a reset verifier and
	// a new one are the same thing.
	NewVerifier(env verifier.Env) (Verifier, error)
}

// Verifier is the receiver-side state machine of a scheme.
type Verifier interface {
	// Ingest consumes one arriving wire packet (at the given receiver-
	// local time) and returns the packets newly authenticated by it. The
	// returned events belong to the verifier and stay valid until its next
	// Ingest, Reset or deferred verdict (verifier.Env.Sink); a caller that
	// keeps them copies them.
	Ingest(p *packet.Packet, at time.Time) ([]verifier.Event, error)
	// Stats returns the verifier's counters.
	Stats() verifier.Stats
	// Reset makes the verifier a fresh one for the next block, configured
	// by env, keeping its storage: after Reset it behaves, counts and
	// traces exactly as NewVerifier(env)'s would. A signature still parked
	// on the old Env's BatchQ would resolve into the new block, so reset
	// only a verifier with Stats().PendingSignature == 0, or one whose
	// queue is never resolved again.
	Reset(env verifier.Env) error
}

// VertexMapper is implemented by schemes whose wire authentication indices
// map one-to-one onto dependence-graph vertices, enabling trace→graph joins
// (root-cause diagnosis attributes an unauthenticated packet to the losses
// that cut its hash path, which requires locating each wire packet in the
// graph). Hash-chained schemes and the per-packet-signature baselines use
// the identity mapping; TESLA does not implement the interface because its
// graph uses the split message/key vertex encoding, where one wire packet
// corresponds to two vertices.
type VertexMapper interface {
	// VertexOf returns the dependence-graph vertex for a wire
	// authentication index, and false for indices with no vertex (e.g.
	// bootstrap packets outside the block).
	VertexOf(index uint32) (int, bool)
}

// PendingRoot is a block root awaiting its signature: Content is the exact
// byte string the signature must cover (the root packet's authenticated
// content), and Attach installs the produced signature into the withheld
// wire packets. A batching layer (internal/server) collects pending roots
// from many blocks and streams, amortizes one signature over all of them
// via crypto.BatchSigner, and attaches the resulting blobs.
type PendingRoot struct {
	// Content is signed as-is; it must not be mutated before Attach.
	Content []byte
	// HeldWire lists the 0-based positions (in the packet slice returned
	// alongside this PendingRoot) of packets that carry the signature and
	// therefore must be withheld from the wire until Attach runs. All
	// other packets are safe to send immediately.
	HeldWire []int
	attach   func(sig []byte)
}

// NewPendingRoot builds a PendingRoot; schemes call this from their
// AuthenticateDeferred implementations.
func NewPendingRoot(content []byte, heldWire []int, attach func(sig []byte)) *PendingRoot {
	return &PendingRoot{Content: content, HeldWire: heldWire, attach: attach}
}

// Attach installs the signature produced for Content. It must be called
// exactly once, before the held packets are sent.
func (pr *PendingRoot) Attach(sig []byte) { pr.attach(sig) }

// DeferredAuthenticator is implemented by schemes whose block signature
// can be supplied after packet construction — the hook batched signing
// builds on. AuthenticateDeferred is Authenticate with the root signature
// left pending: it returns the block's wire packets (the root unsigned)
// plus the PendingRoot that later receives the signature. Verifiers see no
// difference as long as held packets are only sent after Attach.
type DeferredAuthenticator interface {
	AuthenticateDeferred(blockID uint64, payloads [][]byte) ([]*packet.Packet, *PendingRoot, error)
}
