package scheme

import (
	"fmt"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/depgraph"
	"mcauth/internal/packet"
	"mcauth/internal/verifier"
)

// Topology describes a hash-chaining layout in send-order indexing: Root is
// the packet the signature applies to, and each edge {from, to} means the
// packet sent at position `from` carries the hash of the packet sent at
// position `to` (the dependence edge P_from -> P_to of Definition 1).
type Topology struct {
	Name  string
	N     int
	Root  int
	Edges [][2]int
	// RootCopies is how many times the signature packet is sent (the
	// paper's remedy for its "P_sign always arrives" assumption: "this
	// can be easily achieved by sending it multiple times"). 0 and 1
	// both mean a single copy; the SigCopies term of Equation (3)
	// accounts for the overhead.
	RootCopies int
}

// Graph builds the topology's dependence graph and checks it is one: acyclic,
// every vertex reachable from the root.
func (t Topology) Graph() (*depgraph.Graph, error) {
	g, err := depgraph.New(t.N, t.Root, t.Edges...)
	if err == nil {
		err = g.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("scheme %s: %w", t.Name, err)
	}
	return g, nil
}

// maxRootCopies bounds replication; beyond a handful of copies the
// residual loss probability p^copies is negligible for any practical p.
const maxRootCopies = 8

// Chained turns any Topology into a runnable Scheme: Authenticate embeds
// digests along the edges and signs the root packet; verification uses the
// generic engine in internal/verifier.
type Chained struct {
	topo   Topology
	graph  *depgraph.Graph
	signer crypto.Signer
	pub    crypto.Verifier // signer.Public(), which copies the key per call
	// fillOrder lists vertices so that every packet appears after all
	// packets whose hashes it carries (reverse topological order).
	fillOrder []int
	// edges is the number of carried hashes per block.
	edges int
}

var _ Scheme = (*Chained)(nil)

// NewChained validates the topology (acyclic, rooted) and prepares the
// scheme.
func NewChained(topo Topology, signer crypto.Signer) (*Chained, error) {
	if signer == nil {
		return nil, fmt.Errorf("scheme: nil signer")
	}
	if topo.RootCopies < 0 || topo.RootCopies > maxRootCopies {
		return nil, fmt.Errorf("scheme %s: root copies %d out of [0,%d]", topo.Name, topo.RootCopies, maxRootCopies)
	}
	g, err := topo.Graph()
	if err != nil {
		return nil, err
	}
	order, err := g.TopoFromRoot()
	if err != nil {
		return nil, fmt.Errorf("scheme %s: %w", topo.Name, err)
	}
	// Reverse: dependencies (edge targets) must be finalized before the
	// packets that carry their hashes.
	fill := make([]int, len(order))
	edges := 0
	for i, v := range order {
		fill[len(order)-1-i] = v
		edges += len(g.OutNeighbors(v))
	}
	return &Chained{topo: topo, graph: g, signer: signer, pub: signer.Public(), fillOrder: fill, edges: edges}, nil
}

// Name implements Scheme.
func (c *Chained) Name() string { return c.topo.Name }

// BlockSize implements Scheme.
func (c *Chained) BlockSize() int { return c.topo.N }

// WireCount implements Scheme: block size plus any extra signature-packet
// copies.
func (c *Chained) WireCount() int { return c.topo.N + c.extraRootCopies() }

func (c *Chained) extraRootCopies() int {
	if c.topo.RootCopies > 1 {
		return c.topo.RootCopies - 1
	}
	return 0
}

// Graph implements Scheme.
func (c *Chained) Graph() (*depgraph.Graph, error) { return c.graph.Clone(), nil }

// VertexOf implements VertexMapper: wire index i is graph vertex i (extra
// signature-packet copies reuse the root's index and so map to the root).
func (c *Chained) VertexOf(index uint32) (int, bool) {
	if index < 1 || int(index) > c.topo.N {
		return 0, false
	}
	return int(index), true
}

// buildPackets constructs the block's wire packets with every dependence
// edge embedded as a carried hash, the root unsigned. It returns the wire
// slice (send order), the root packet and the root's content, the bytes
// its signature covers. The packets come from one slab and their carried
// hashes from another, each packet's Hashes capacity-limited, and every
// digest is taken over one reused content buffer.
func (c *Chained) buildPackets(blockID uint64, payloads [][]byte) ([]*packet.Packet, *packet.Packet, []byte, error) {
	n := c.topo.N
	if len(payloads) != n {
		return nil, nil, nil, fmt.Errorf("scheme %s: got %d payloads, want %d", c.topo.Name, len(payloads), n)
	}
	pk := make([]packet.Packet, n)
	out := make([]*packet.Packet, n, n+c.extraRootCopies())
	for i := range pk {
		pk[i] = packet.Packet{BlockID: blockID, Index: uint32(i + 1), Payload: payloads[i]}
		out[i] = &pk[i]
	}
	// Fill hashes children-first so carried digests are final: a packet is
	// hashed once, when its own hashes are in, however many packets carry it.
	refs := make([]packet.HashRef, c.edges)
	digests := make([]crypto.Digest, n+1) // by vertex, 1-based
	var content []byte
	for _, v := range c.fillOrder {
		p := &pk[v-1]
		if to := c.graph.OutNeighbors(v); len(to) > 0 {
			p.Hashes, refs = refs[:len(to):len(to)], refs[len(to):]
			for k, w := range to {
				p.Hashes[k] = packet.HashRef{TargetIndex: uint32(w), Digest: digests[w]}
			}
		}
		if c.graph.InDegree(v) > 0 {
			content = p.AppendContent(content[:0])
			digests[v] = crypto.HashBytes(content)
		}
	}
	root := &pk[c.topo.Root-1]
	// Replicate the signature packet at the end of the block; receivers
	// treat later copies as duplicates.
	for k := 0; k < c.extraRootCopies(); k++ {
		out = append(out, root)
	}
	return out, root, root.AppendContent(content[:0]), nil
}

// Authenticate implements Scheme: it builds the block's packets, embeds
// each dependence edge as a carried hash, and signs the root packet.
func (c *Chained) Authenticate(blockID uint64, payloads [][]byte) ([]*packet.Packet, error) {
	out, root, content, err := c.buildPackets(blockID, payloads)
	if err != nil {
		return nil, err
	}
	root.Signature = c.signer.Sign(content)
	return out, nil
}

// AuthenticateDeferred implements DeferredAuthenticator: the root's
// signature is supplied later via PendingRoot.Attach (typically by a
// crypto.BatchSigner amortizing one signature across many blocks). The
// root packet and its extra copies share one underlying packet, so a
// single Attach signs them all; their wire positions are reported in
// PendingRoot.HeldWire.
func (c *Chained) AuthenticateDeferred(blockID uint64, payloads [][]byte) ([]*packet.Packet, *PendingRoot, error) {
	out, root, content, err := c.buildPackets(blockID, payloads)
	if err != nil {
		return nil, nil, err
	}
	held := []int{c.topo.Root - 1}
	for k := 0; k < c.extraRootCopies(); k++ {
		held = append(held, c.topo.N+k)
	}
	pr := NewPendingRoot(content, held, func(sig []byte) {
		root.Signature = sig
	})
	return out, pr, nil
}

var _ DeferredAuthenticator = (*Chained)(nil)

// NewVerifier implements Scheme.
func (c *Chained) NewVerifier(env verifier.Env) (Verifier, error) {
	cv := &chainedVerifier{n: c.topo.N, pub: c.pub}
	if err := cv.Reset(env); err != nil {
		return nil, err
	}
	return cv, nil
}

// chainedVerifier adapts verifier.Chained to the Scheme interface: the
// engine is bound to a block ID, which a scheme-level verifier only learns
// from the first packet it ingests.
type chainedVerifier struct {
	n     int
	pub   crypto.Verifier
	env   verifier.Env
	bound bool // inner has been reset for this block's first packet
	inner verifier.Chained
}

// Reset implements Verifier. The engine itself resets on the first packet,
// which names the block.
func (cv *chainedVerifier) Reset(env verifier.Env) error {
	// Checked here so a bad env fails the Reset, not the first Ingest.
	if err := env.Validate(); err != nil {
		return err
	}
	cv.env, cv.bound = env, false
	return nil
}

// Ingest implements Verifier. The first packet binds the verifier to its
// block ID.
func (cv *chainedVerifier) Ingest(p *packet.Packet, at time.Time) ([]verifier.Event, error) {
	if !cv.bound {
		if p == nil {
			return nil, fmt.Errorf("scheme: nil packet")
		}
		if err := cv.inner.Reset(p.BlockID, cv.n, cv.pub, cv.env); err != nil {
			return nil, err
		}
		cv.bound = true
	}
	return cv.inner.Ingest(p, at)
}

// Stats implements Verifier.
func (cv *chainedVerifier) Stats() verifier.Stats {
	if !cv.bound {
		return verifier.Stats{}
	}
	return cv.inner.Stats()
}
