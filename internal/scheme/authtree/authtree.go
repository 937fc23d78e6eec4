// Package authtree implements the Wong-Lam authentication tree (paper
// Section 2.2): packet hashes form the leaves of a Merkle tree, parents are
// hashes of their children, and the root is signed. Every packet carries
// the root signature plus its sibling path, so each packet is individually
// verifiable: q_i = 1 regardless of loss, zero receiver delay, at the cost
// of (arity-1)·log_arity(n) hashes plus a signature per packet. The tree
// degree is configurable (Wong-Lam studied the degree as an
// overhead/computation knob); New builds the classic binary tree.
package authtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/depgraph"
	"mcauth/internal/packet"
	"mcauth/internal/scheme"
	"mcauth/internal/verifier"
)

var (
	labelLeaf = []byte("authtree-leaf-v1")
	labelNode = []byte("authtree-node-v1")
	labelRoot = []byte("authtree-root-v1")
	labelPad  = []byte("authtree-pad-v1")
)

// maxArity bounds the tree degree; beyond this the per-packet path is
// wider than the tree is deep for any practical n.
const maxArity = 16

// Tree is the Wong-Lam scheme over blocks of n packets.
type Tree struct {
	n      int
	arity  int
	depth  int // levels above the leaves
	leaves int // padded leaf count (power of arity)
	signer crypto.Signer
}

var _ scheme.Scheme = (*Tree)(nil)

// New builds the classic binary authentication tree.
func New(n int, signer crypto.Signer) (*Tree, error) {
	return NewArity(n, 2, signer)
}

// NewArity builds a tree of the given degree: higher arity means fewer
// levels (less hashing) but wider sibling paths (more overhead) per
// packet.
func NewArity(n, arity int, signer crypto.Signer) (*Tree, error) {
	if n < 1 {
		return nil, fmt.Errorf("authtree: block size %d must be >= 1", n)
	}
	if arity < 2 || arity > maxArity {
		return nil, fmt.Errorf("authtree: arity %d out of [2,%d]", arity, maxArity)
	}
	if signer == nil {
		return nil, fmt.Errorf("authtree: nil signer")
	}
	leaves := 1
	depth := 0
	for leaves < n {
		leaves *= arity
		depth++
	}
	return &Tree{n: n, arity: arity, depth: depth, leaves: leaves, signer: signer}, nil
}

// Name implements Scheme.
func (t *Tree) Name() string {
	if t.arity == 2 {
		return fmt.Sprintf("authtree(n=%d)", t.n)
	}
	return fmt.Sprintf("authtree(n=%d, arity=%d)", t.n, t.arity)
}

// BlockSize implements Scheme.
func (t *Tree) BlockSize() int { return t.n }

// WireCount implements Scheme.
func (t *Tree) WireCount() int { return t.n }

// hashesPerPacket returns the sibling-path width (arity-1)·depth.
func (t *Tree) hashesPerPacket() int { return (t.arity - 1) * t.depth }

// Graph implements Scheme. Every packet is individually verifiable (in the
// paper's terms, every packet is P_sign); this is rendered as a star from
// the root so that q_i = 1 for every received packet. Note the per-packet
// overhead of the tree must be read from the wire packets, not from this
// graph's edge count.
func (t *Tree) Graph() (*depgraph.Graph, error) {
	g, err := depgraph.New(t.n, 1)
	if err != nil {
		return nil, err
	}
	for i := 2; i <= t.n; i++ {
		if err := g.AddEdge(1, i); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// VertexOf implements scheme.VertexMapper: wire index i is graph vertex i.
func (t *Tree) VertexOf(index uint32) (int, bool) {
	if index < 1 || int(index) > t.n {
		return 0, false
	}
	return int(index), true
}

// leafDigest, nodeDigest and paddingDigest hash on the caller's scratch:
// the sender holds one per block, the verifier one for its lifetime.
func leafDigest(hs *crypto.HashScratch, blockID uint64, index uint32, payload []byte) crypto.Digest {
	var hdr [12]byte
	binary.BigEndian.PutUint64(hdr[:8], blockID)
	binary.BigEndian.PutUint32(hdr[8:], index)
	hs.Reset()
	hs.Write(labelLeaf)
	hs.Write(hdr[:])
	hs.Write(payload)
	return hs.Sum()
}

func nodeDigest(hs *crypto.HashScratch, children []crypto.Digest) crypto.Digest {
	hs.Reset()
	hs.Write(labelNode)
	for i := range children {
		hs.Write(children[i][:])
	}
	return hs.Sum()
}

// paddingDigest fills leaves beyond n; it is domain-separated so no real
// packet can collide with it.
func paddingDigest(hs *crypto.HashScratch, blockID uint64, position int) crypto.Digest {
	var hdr [12]byte
	binary.BigEndian.PutUint64(hdr[:8], blockID)
	binary.BigEndian.PutUint32(hdr[8:], uint32(position))
	hs.Reset()
	hs.Write(labelPad)
	hs.Write(hdr[:])
	return hs.Sum()
}

// appendRootMessage appends the message the block signature covers to buf.
func appendRootMessage(buf []byte, blockID uint64, n int, root crypto.Digest) []byte {
	buf = append(buf, labelRoot...)
	buf = binary.BigEndian.AppendUint64(buf, blockID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	return append(buf, root[:]...)
}

// pathRef encodes a sibling's (level, slot) as the HashRef target index.
func (t *Tree) pathRef(level, slot int) uint32 {
	return uint32(level*t.arity + slot)
}

// buildPackets constructs the block's packets with their sibling paths
// filled in, signatures left empty, and returns them with the message the
// block signature covers. The tree's nodes, the packets and their carried
// hashes each come from one slab, every packet's Hashes
// capacity-limited, and all hashing runs on one scratch.
func (t *Tree) buildPackets(blockID uint64, payloads [][]byte) ([]*packet.Packet, []byte, error) {
	if len(payloads) != t.n {
		return nil, nil, fmt.Errorf("authtree: got %d payloads, want %d", len(payloads), t.n)
	}
	// nodes holds every level, leaves first and the root last: the layout
	// of the verifier's proven table.
	nodes := make([]crypto.Digest, (t.leaves*t.arity-1)/(t.arity-1))
	var hs crypto.HashScratch
	for i := 0; i < t.leaves; i++ {
		if i < t.n {
			nodes[i] = leafDigest(&hs, blockID, uint32(i+1), payloads[i])
		} else {
			nodes[i] = paddingDigest(&hs, blockID, i)
		}
	}
	for base, width := 0, t.leaves; width > 1; base, width = base+width, width/t.arity {
		for i := 0; i < width/t.arity; i++ {
			nodes[base+width+i] = nodeDigest(&hs, nodes[base+i*t.arity:base+(i+1)*t.arity])
		}
	}

	h := t.hashesPerPacket()
	pk := make([]packet.Packet, t.n)
	pkts := make([]*packet.Packet, t.n)
	refs := make([]packet.HashRef, t.n*h)
	for i := range pk {
		p := &pk[i]
		*p = packet.Packet{BlockID: blockID, Index: uint32(i + 1), Payload: payloads[i]}
		p.Hashes, refs = refs[:0:h], refs[h:]
		pos, base, width := i, 0, t.leaves
		for lvl := 0; lvl < t.depth; lvl++ {
			own := pos % t.arity
			for slot := 0; slot < t.arity; slot++ {
				if slot != own {
					p.Hashes = append(p.Hashes, packet.HashRef{
						TargetIndex: t.pathRef(lvl, slot),
						Digest:      nodes[base+pos-own+slot],
					})
				}
			}
			base += width
			width /= t.arity
			pos /= t.arity
		}
		pkts[i] = p
	}
	msg := make([]byte, 0, len(labelRoot)+12+crypto.HashSize)
	return pkts, appendRootMessage(msg, blockID, t.n, nodes[len(nodes)-1]), nil
}

// Authenticate implements Scheme: it builds the Merkle tree over the
// block, signs the root once, and equips every packet with the signature
// and its sibling path. Each sibling is stored as a HashRef whose
// TargetIndex encodes its (level, child-slot) position.
func (t *Tree) Authenticate(blockID uint64, payloads [][]byte) ([]*packet.Packet, error) {
	pkts, msg, err := t.buildPackets(blockID, payloads)
	if err != nil {
		return nil, err
	}
	sig := t.signer.Sign(msg)
	for _, p := range pkts {
		p.Signature = sig
	}
	return pkts, nil
}

// AuthenticateDeferred implements scheme.DeferredAuthenticator: the root
// signature — which every packet of the block carries — is supplied later
// via PendingRoot.Attach, typically by a crypto.BatchSigner amortizing one
// signature across many blocks. All wire positions are held, since every
// packet carries the signature.
func (t *Tree) AuthenticateDeferred(blockID uint64, payloads [][]byte) ([]*packet.Packet, *scheme.PendingRoot, error) {
	pkts, msg, err := t.buildPackets(blockID, payloads)
	if err != nil {
		return nil, nil, err
	}
	held := make([]int, t.n)
	for i := range held {
		held[i] = i
	}
	pr := scheme.NewPendingRoot(msg, held, func(sig []byte) {
		for _, p := range pkts {
			p.Signature = sig
		}
	})
	return pkts, pr, nil
}

var _ scheme.DeferredAuthenticator = (*Tree)(nil)

// NewVerifier implements Scheme.
func (t *Tree) NewVerifier(env verifier.Env) (scheme.Verifier, error) {
	tv := &treeVerifier{n: t.n, arity: t.arity, depth: t.depth, leaves: t.leaves, pub: t.signer.Public()}
	if err := tv.Reset(env); err != nil {
		return nil, err
	}
	return tv, nil
}

type treeVerifier struct {
	n      int
	arity  int
	depth  int
	leaves int
	pub    crypto.Verifier

	authentic map[uint32]bool

	// Receiver fast path. Every packet of a block repeats the same root
	// signature and neighbouring packets share most of their path, so the
	// verifier remembers what it has proven (Wong-Lam's receiver-side node
	// cache): root is the root whose signature it checked, and proven the
	// digest of every node below it that is on, or sibling to, the path of
	// an accepted packet — leaves first, then each level. A node enters
	// only from a walk that ended in root, and a leaf digest binds block,
	// index and payload, so a walk that reaches a proven node has proven
	// its payload: above it the carried siblings are compared with the
	// table instead of hashed, and a walk that ends in root needs no
	// signature check. The table holds one tree; a second signed root for
	// the block (a sender reusing the ID) empties it, so its entries always
	// hash to one another. It is allocated by the first packet accepted.
	// path and hit are
	// computeRoot's notes for remember: its own digest at each level, and
	// the level from which they were already proven (depth+1: none). The
	// scratch fields make the per-packet path walk allocation-free.
	root     crypto.Digest
	proven   []crypto.Digest
	path     []crypto.Digest
	hit      int
	children []crypto.Digest
	hs       crypto.HashScratch
	rootMsg  []byte
	// pendingRoots tracks roots whose signature check is in flight on the
	// batch-verify queue: later packets proving the same root park here and
	// share the verdict instead of enqueueing duplicate checks.
	pendingRoots map[crypto.Digest][]parked
	// events is what Ingest returns and Sink is passed (see
	// scheme.Verifier.Ingest on who owns it).
	events []verifier.Event

	// rec holds the Env: Cache, BatchQ and Sink as documented; MaxBuffered
	// caps parked signatures (only deferred mode buffers).
	rec verifier.Recorder
}

// parked is a packet awaiting another packet's deferred root verdict, with
// its arrival time.
type parked struct {
	p       *packet.Packet
	arrived time.Time
}

var _ scheme.Verifier = (*treeVerifier)(nil)

// computeRoot walks the packet's sibling path up to the Merkle root,
// reporting false for malformed paths. It hashes only up to the first
// proven node; a carried sibling that differs from the table sends the
// walk back to hashing, so the root returned is always the one the packet's
// own path hashes to.
func (tv *treeVerifier) computeRoot(p *packet.Packet) (crypto.Digest, bool) {
	digest := leafDigest(&tv.hs, p.BlockID, p.Index, p.Payload)
	pos := int(p.Index) - 1
	next := 0
	if cap(tv.children) < tv.arity {
		tv.children = make([]crypto.Digest, tv.arity)
		tv.path = make([]crypto.Digest, tv.depth+1)
	}
	children := tv.children[:tv.arity]
	base, width := 0, tv.leaves
	known := false
	tv.hit = tv.depth + 1
	for lvl := 0; ; lvl++ {
		if !known && tv.node(lvl, base+pos) == digest {
			known, tv.hit = true, lvl
		}
		tv.path[lvl] = digest
		if lvl == tv.depth {
			return digest, true
		}
		own := pos % tv.arity
		group := base + pos - own
		for slot := 0; slot < tv.arity; slot++ {
			if slot == own {
				children[slot] = digest
				continue
			}
			ref := p.Hashes[next]
			next++
			if ref.TargetIndex != uint32(lvl*tv.arity+slot) {
				return crypto.Digest{}, false
			}
			children[slot] = ref.Digest
			known = known && tv.proven[group+slot] == ref.Digest
		}
		base += width
		width /= tv.arity
		pos /= tv.arity
		if known {
			digest = tv.node(lvl+1, base+pos)
		} else {
			digest = nodeDigest(&tv.hs, children)
			tv.hit = tv.depth + 1
		}
	}
}

// node returns the proven digest of node i, on level lvl; zero, which no
// hash equals, when there is none.
func (tv *treeVerifier) node(lvl, i int) crypto.Digest {
	if lvl == tv.depth {
		return tv.root
	}
	if tv.proven == nil {
		return crypto.Digest{}
	}
	return tv.proven[i]
}

// proveRoot makes root, whose signature was just checked, the table's root.
func (tv *treeVerifier) proveRoot(root crypto.Digest) {
	if tv.root != root {
		tv.root = root
		clear(tv.proven)
	}
}

// remember enters the nodes of p's walk below its first proven one, and
// their siblings, into the table. Call it only for the packet computeRoot
// last walked, once its root is verified.
func (tv *treeVerifier) remember(p *packet.Packet) {
	tv.proveRoot(tv.path[tv.depth])
	if tv.proven == nil {
		tv.proven = make([]crypto.Digest, (tv.leaves*tv.arity-1)/(tv.arity-1)-1)
	}
	pos, next := int(p.Index)-1, 0
	base, width := 0, tv.leaves
	for lvl := 0; lvl < tv.hit && lvl < tv.depth; lvl++ {
		tv.proven[base+pos] = tv.path[lvl]
		own := pos % tv.arity
		for slot := 0; slot < tv.arity; slot++ {
			if slot != own {
				tv.proven[base+pos-own+slot] = p.Hashes[next].Digest
				next++
			}
		}
		base += width
		width /= tv.arity
		pos /= tv.arity
	}
}

// Reset implements scheme.Verifier: the proven-node table and the signed
// root go with the rest, so nothing proven for one block vouches for the
// next.
func (tv *treeVerifier) Reset(env verifier.Env) error {
	if err := env.Validate(); err != nil {
		return err
	}
	tv.rec.Reset(env)
	clear(tv.authentic)
	clear(tv.pendingRoots)
	tv.root = crypto.Digest{}
	clear(tv.proven)
	clear(tv.events)
	tv.events = tv.events[:0]
	return nil
}

// accept marks p authentic on arrival — nothing here waits except on a
// deferred verdict, which stands at the packet's arrival time — and appends
// its event to tv.events.
func (tv *treeVerifier) accept(p *packet.Packet, at time.Time) []verifier.Event {
	tv.authentic[p.Index] = true
	tv.rec.Authenticated(p, at, at)
	tv.events = append(tv.events, verifier.Event{Index: p.Index, Payload: p.Payload})
	return tv.events
}

// resolveRoot applies a deferred signature verdict for the root digest p
// proved its path against, settling every packet parked on the same root.
func (tv *treeVerifier) resolveRoot(first parked, root crypto.Digest, ok bool) {
	waiters := tv.pendingRoots[root]
	delete(tv.pendingRoots, root)
	tv.events = tv.events[:0]
	settle := func(w parked, verified bool) {
		if tv.rec.Settle(w.p, w.arrived, tv.authentic[w.p.Index], verified) {
			tv.proveRoot(root)
			tv.accept(w.p, w.arrived)
		}
	}
	settle(first, ok)
	for _, w := range waiters {
		verified := ok
		if !verified && !bytes.Equal(w.p.Signature, first.p.Signature) {
			// The enqueued copy's signature bytes failed. A waiter
			// carrying the same bytes proves the same root, so it would
			// only repeat that check; one carrying its own gets its own
			// synchronous check.
			tv.rootMsg = appendRootMessage(tv.rootMsg[:0], w.p.BlockID, tv.n, root)
			verified = tv.rec.Verify(tv.pub, tv.rootMsg, nil, w.p.Signature)
		}
		settle(w, verified)
	}
	tv.rec.Deliver(tv.events)
}

// deferRoot parks p on the deferred signature check of root, tv.rootMsg,
// joining the check already in flight for root when there is one.
func (tv *treeVerifier) deferRoot(p *packet.Packet, at time.Time, root crypto.Digest) {
	if waiters, pending := tv.pendingRoots[root]; pending {
		if tv.rec.Park(p, at, 0) {
			tv.pendingRoots[root] = append(waiters, parked{p, at})
		}
		return
	}
	// Marked before the enqueue, whose auto-resolve may settle it at once.
	tv.pendingRoots[root] = nil
	if !tv.rec.Defer(tv.pub, p, tv.rootMsg, at, 0, func(ok bool) { tv.resolveRoot(parked{p, at}, root, ok) }) {
		delete(tv.pendingRoots, root)
	}
}

// Ingest implements scheme.Verifier: each packet verifies independently by
// recomputing the root from its leaf and sibling path; the signature over
// a given root is checked at most once per verifier.
func (tv *treeVerifier) Ingest(p *packet.Packet, at time.Time) ([]verifier.Event, error) {
	if p == nil {
		return nil, fmt.Errorf("authtree: nil packet")
	}
	if p.Index < 1 || int(p.Index) > tv.n {
		return nil, fmt.Errorf("authtree: index %d out of [1,%d]", p.Index, tv.n)
	}
	tv.rec.Received()
	if tv.authentic == nil {
		tv.authentic = make(map[uint32]bool)
		tv.pendingRoots = make(map[crypto.Digest][]parked)
	}
	tv.events = tv.events[:0]
	if tv.authentic[p.Index] {
		tv.rec.Duplicate()
		return nil, nil
	}
	if len(p.Hashes) != tv.depth*(tv.arity-1) {
		tv.rec.Rejected(p, at, "bad_path")
		return nil, nil
	}
	root, ok := tv.computeRoot(p)
	if !ok {
		tv.rec.Rejected(p, at, "bad_path")
		return nil, nil
	}
	if tv.hit <= tv.depth {
		// The walk ended in the proven root.
		tv.remember(p)
		return tv.accept(p, at), nil
	}
	tv.rootMsg = appendRootMessage(tv.rootMsg[:0], p.BlockID, tv.n, root)
	if tv.rec.Deferring() {
		tv.deferRoot(p, at, root)
		return nil, nil
	}
	if !tv.rec.Check(tv.pub, p, tv.rootMsg, nil, at) {
		return nil, nil
	}
	tv.remember(p)
	return tv.accept(p, at), nil
}

// Stats implements scheme.Verifier.
func (tv *treeVerifier) Stats() verifier.Stats { return tv.rec.Stats() }
