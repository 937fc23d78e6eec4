// Correlated tree-edge loss: the paper's analysis assumes every receiver
// draws an independent loss pattern, but a real multicast distribution tree
// loses packets on *edges* — when the link feeding a relay drops a packet,
// every receiver in that subtree misses the same packet. TreeModel captures
// that regime: a tree of seeded per-edge loss processes whose patterns are
// shared by all receivers below the edge, composed with an independent
// per-receiver last-hop model (any existing Model: Bernoulli,
// Gilbert-Elliott, ...). The correlation breaks the closed-form analysis
// (q_min is no longer a product of independent per-receiver terms), which
// is exactly why the Monte-Carlo and netsim layers are the source of truth
// for tree scenarios.
package loss

import (
	"fmt"

	"mcauth/internal/stats"
)

// TreeModel is a multicast distribution tree with a loss process on every
// edge. Node 0 is the source; every other node is a relay. Receivers
// attach round-robin to the leaves and observe the AND of every edge
// pattern on their root path, composed with their own independent last-hop
// model.
//
// Edge patterns are derived from the tree seed, not from the caller's RNG:
// two receivers under the same edge therefore lose the *same* packets —
// the shared-fate semantics of a distribution tree. The per-receiver
// last-hop model still draws from the caller's RNG, so with lossless tree
// edges a receiver's pattern (and RNG stream) is bit-identical to the
// plain last-hop model's.
//
// Build the tree before sampling and do not mutate it afterwards; the
// sampling entry points are then safe for concurrent use by independent
// receivers.
type TreeModel struct {
	seed   uint64
	parent []int   // parent[0] = -1
	edge   []Model // edge[i] is the loss process on parent[i] -> i; nil = lossless
	leaf   Model   // per-receiver last-hop model; nil = lossless
}

// newTree creates a tree holding only the source (node 0). leaf is the
// independent per-receiver last-hop loss model; nil means a lossless last
// hop.
func newTree(seed uint64, leaf Model) *TreeModel {
	return &TreeModel{
		seed:   seed,
		parent: []int{-1},
		edge:   []Model{nil},
		leaf:   leaf,
	}
}

// NewUniformTree builds a complete tree of the given depth and fanout:
// depth 0 is just the source, depth 1 adds fanout relays, and so on. Every
// edge carries the same loss process (nil = lossless edges); use SetEdge
// to make individual edges lossy afterwards.
func NewUniformTree(seed uint64, depth, fanout int, edge, leaf Model) (*TreeModel, error) {
	if depth < 0 {
		return nil, fmt.Errorf("loss: tree depth %d must be >= 0", depth)
	}
	if depth > 0 && fanout < 1 {
		return nil, fmt.Errorf("loss: tree fanout %d must be >= 1", fanout)
	}
	t := newTree(seed, leaf)
	level := []int{0}
	for d := 0; d < depth; d++ {
		var next []int
		for _, p := range level {
			for k := 0; k < fanout; k++ {
				id, err := t.addNode(p, edge)
				if err != nil {
					return nil, err
				}
				next = append(next, id)
			}
		}
		level = next
	}
	return t, nil
}

// NewOverlayTree builds the relay overlay's uniform tree: lossless edges,
// leaf on every receiver's last hop, and Bernoulli(edgeP) on the first
// lossyEdges edges, which feed the first-level relays, so each one's loss
// is shared by a whole 1/fanout subtree. Edge patterns are a pure
// function of seed, so two runs on equal arguments see identical loss.
// edgeP must lie in [0,1) and lossyEdges in [0,fanout]; a lossy edge
// needs depth >= 2, since a depth-1 tree has no mid-tree edge.
func NewOverlayTree(seed uint64, depth, fanout, lossyEdges int, edgeP float64, leaf Model) (*TreeModel, error) {
	if !(edgeP >= 0 && edgeP < 1) {
		return nil, fmt.Errorf("loss: overlay edge loss %g out of [0,1)", edgeP)
	}
	if lossyEdges < 0 || lossyEdges > fanout {
		return nil, fmt.Errorf("loss: overlay lossy edges %d out of [0,%d] (only the first-level edges can be lossy)", lossyEdges, fanout)
	}
	lossy := edgeP > 0 && lossyEdges > 0
	if lossy && depth < 2 {
		return nil, fmt.Errorf("loss: overlay lossy edges need depth >= 2 (a depth-1 tree has no mid-tree edge)")
	}
	t, err := NewUniformTree(seed^0x6f7665726c6179, depth, fanout, nil, leaf)
	if err != nil || !lossy {
		return t, err
	}
	for e := 1; e <= lossyEdges; e++ {
		if err := t.SetEdge(e, Bernoulli{P: edgeP}); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// addNode attaches a new relay under parent with the given edge loss
// process (nil = lossless edge) and returns its node index. Parents must
// exist already, so node indices are always topologically ordered
// (parent < child).
func (t *TreeModel) addNode(parent int, edge Model) (int, error) {
	if parent < 0 || parent >= len(t.parent) {
		return 0, fmt.Errorf("loss: tree parent %d out of [0,%d)", parent, len(t.parent))
	}
	t.parent = append(t.parent, parent)
	t.edge = append(t.edge, edge)
	return len(t.parent) - 1, nil
}

// SetEdge replaces the loss process on the edge feeding node (nil =
// lossless). Node 0 has no feeding edge.
func (t *TreeModel) SetEdge(node int, edge Model) error {
	if node < 1 || node >= len(t.parent) {
		return fmt.Errorf("loss: tree node %d out of [1,%d)", node, len(t.parent))
	}
	t.edge[node] = edge
	return nil
}

// Nodes returns the node count including the source.
func (t *TreeModel) Nodes() int { return len(t.parent) }

// Parent returns the parent of node (-1 for the source).
func (t *TreeModel) Parent(node int) int { return t.parent[node] }

// LeafModel returns the per-receiver last-hop model (nil = lossless).
func (t *TreeModel) LeafModel() Model { return t.leaf }

// Leaves returns the nodes with no children, in ascending index order.
// A tree with only the source has the source as its single leaf.
func (t *TreeModel) Leaves() []int {
	hasChild := make([]bool, len(t.parent))
	for n := 1; n < len(t.parent); n++ {
		hasChild[t.parent[n]] = true
	}
	var out []int
	for n := range t.parent {
		if !hasChild[n] {
			out = append(out, n)
		}
	}
	return out
}

// leafFor maps receiver r to its leaf node, round-robin over Leaves.
func (t *TreeModel) leafFor(r int) int {
	leaves := t.Leaves()
	return leaves[r%len(leaves)]
}

// path returns the edges (named by their lower node) from the source to
// node, in root-to-node order. Empty for the source itself.
func (t *TreeModel) path(node int) []int {
	var rev []int
	for n := node; n > 0; n = t.parent[n] {
		rev = append(rev, n)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// edgeSeed derives the deterministic per-edge pattern seed. Independent of
// the caller's RNG by design: the pattern is a property of the edge, not
// of who looks at it.
func (t *TreeModel) edgeSeed(node int) uint64 {
	return (t.seed ^ 0x7472656565646765) + uint64(node)*0x9E3779B97F4A7C15 // "treeedge"
}

// EdgePatternInto fills recv[1..] with the shared received pattern of the
// edge feeding node: every receiver below the edge sees this same pattern.
// A nil edge model is lossless (all true). Same 1-based contract as
// Model.SampleInto.
func (t *TreeModel) EdgePatternInto(node int, recv []bool) {
	if len(recv) <= 1 {
		return
	}
	m := t.edge[node]
	if m == nil {
		for i := 1; i < len(recv); i++ {
			recv[i] = true
		}
		return
	}
	m.SampleInto(stats.NewRNG(t.edgeSeed(node)), recv)
}

// receiver returns receiver r's composed loss model under the shared-fate
// semantics: edge patterns are drawn from the tree seed (identical for
// every receiver under the edge), the last hop from the caller's RNG. The
// returned model keeps internal scratch and must not be shared across
// goroutines; derive one per receiver.
func (t *TreeModel) receiver(r int) Model {
	return &treePath{t: t, path: t.path(t.leafFor(r)), shared: true}
}

// marginal returns receiver r's loss model with edge patterns redrawn from
// the caller's RNG on every SampleInto — the i.i.d. marginal distribution of
// the receiver's loss, for Monte-Carlo estimation over many independent
// blocks. Across trials the marginal loss rate of packet i converges to
// 1 - prod(1-rate_e) over the path edges and last hop.
func (t *TreeModel) marginal(r int) Model {
	return &treePath{t: t, path: t.path(t.leafFor(r)), shared: false}
}

// treePath is one receiver's root-path view of the tree.
type treePath struct {
	t       *TreeModel
	path    []int
	shared  bool
	scratch []bool
}

var _ Model = (*treePath)(nil)

// SampleInto implements Model: the last-hop model fills recv from the
// caller's RNG (or all-true when lossless), then every path edge's pattern
// is ANDed in. Zero-length destinations are no-ops and draw nothing, like
// every other Model.
func (p *treePath) SampleInto(rng *stats.RNG, recv []bool) {
	if len(recv) <= 1 {
		return
	}
	if leaf := p.t.leaf; leaf != nil {
		leaf.SampleInto(rng, recv)
	} else {
		for i := 1; i < len(recv); i++ {
			recv[i] = true
		}
	}
	if len(p.path) == 0 {
		return
	}
	if cap(p.scratch) < len(recv) {
		p.scratch = make([]bool, len(recv))
	}
	scratch := p.scratch[:len(recv)]
	for _, e := range p.path {
		m := p.t.edge[e]
		if m == nil {
			continue
		}
		if p.shared {
			m.SampleInto(stats.NewRNG(p.t.edgeSeed(e)), scratch)
		} else {
			m.SampleInto(stats.NewRNG(rng.Uint64()), scratch)
		}
		for i := 1; i < len(recv); i++ {
			recv[i] = recv[i] && scratch[i]
		}
	}
}

// Rate implements Model: the marginal loss rate of the path, one minus the
// product of per-hop delivery rates.
func (p *treePath) Rate() float64 {
	deliver := 1.0
	if p.t.leaf != nil {
		deliver *= 1 - p.t.leaf.Rate()
	}
	for _, e := range p.path {
		if m := p.t.edge[e]; m != nil {
			deliver *= 1 - m.Rate()
		}
	}
	return 1 - deliver
}

// Name implements Model.
func (p *treePath) Name() string {
	leaf := "lossless"
	if p.t.leaf != nil {
		leaf = p.t.leaf.Name()
	}
	mode := "shared"
	if !p.shared {
		mode = "marginal"
	}
	return fmt.Sprintf("tree(hops=%d, leaf=%s, %s)", len(p.path), leaf, mode)
}
