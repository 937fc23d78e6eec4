package loss

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"mcauth/internal/stats"
)

// testTree builds the canonical test topology: source -> two mid relays,
// each with two leaf relays, Bernoulli loss on every tree edge and a
// Bernoulli last hop. Receivers round-robin over leaves 3..6.
func testTree(t *testing.T, seed uint64, edgeP, leafP float64) *TreeModel {
	t.Helper()
	tree := newTree(seed, Bernoulli{P: leafP})
	for _, parent := range []int{0, 0, 1, 1, 2, 2} {
		if _, err := tree.addNode(parent, Bernoulli{P: edgeP}); err != nil {
			t.Fatal(err)
		}
	}
	return tree
}

// TestTreeTopology pins the structural accessors: node count, parents,
// leaf set, round-robin receiver attachment, and root paths.
func TestTreeTopology(t *testing.T) {
	tree := testTree(t, 1, 0.1, 0.1)
	if got := tree.Nodes(); got != 7 {
		t.Fatalf("Nodes() = %d, want 7", got)
	}
	if got := tree.Leaves(); !reflect.DeepEqual(got, []int{3, 4, 5, 6}) {
		t.Fatalf("Leaves() = %v, want [3 4 5 6]", got)
	}
	if got := tree.leafFor(5); got != 4 {
		t.Fatalf("LeafFor(5) = %d, want 4", got)
	}
	if got := tree.path(6); !reflect.DeepEqual(got, []int{2, 6}) {
		t.Fatalf("Path(6) = %v, want [2 6]", got)
	}
	if got := tree.path(0); len(got) != 0 {
		t.Fatalf("Path(0) = %v, want empty", got)
	}
	if p := tree.Parent(0); p != -1 {
		t.Fatalf("Parent(0) = %d, want -1", p)
	}
	// A bare tree's only leaf is the source itself.
	if got := newTree(9, nil).Leaves(); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("bare tree Leaves() = %v, want [0]", got)
	}
}

// TestUniformTree checks the complete-tree constructor's node count and
// shape, and the degenerate depths.
func TestUniformTree(t *testing.T) {
	tree, err := NewUniformTree(3, 2, 4, Bernoulli{P: 0.1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Nodes(); got != 1+4+16 {
		t.Fatalf("Nodes() = %d, want 21", got)
	}
	if got := len(tree.Leaves()); got != 16 {
		t.Fatalf("leaves = %d, want 16", got)
	}
	for _, leaf := range tree.Leaves() {
		if got := len(tree.path(leaf)); got != 2 {
			t.Fatalf("leaf %d path length %d, want 2", leaf, got)
		}
	}
	flat, err := NewUniformTree(3, 0, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Nodes() != 1 {
		t.Fatalf("depth-0 tree has %d nodes, want 1", flat.Nodes())
	}
	if _, err := NewUniformTree(3, -1, 2, nil, nil); err == nil {
		t.Fatal("negative depth accepted")
	}
	if _, err := NewUniformTree(3, 1, 0, nil, nil); err == nil {
		t.Fatal("zero fanout accepted")
	}
}

// TestOverlayTree pins the overlay tree's one rule: the first lossyEdges
// edges carry Bernoulli(edgeP), the rest are lossless, and a shape the
// relay overlay cannot honour is refused.
func TestOverlayTree(t *testing.T) {
	tree, err := NewOverlayTree(9, 2, 4, 2, 0.5, Bernoulli{P: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for node := 1; node < tree.Nodes(); node++ {
		want := Model(nil)
		if node <= 2 {
			want = Bernoulli{P: 0.5}
		}
		if got := tree.edge[node]; got != want {
			t.Errorf("edge %d = %v, want %v", node, got, want)
		}
	}
	if tree.seed != 9^0x6f7665726c6179 {
		t.Errorf("tree seed %#x is not the overlay derivation of 9", tree.seed)
	}
	// A lossless overlay may be shallow, whatever lossyEdges says.
	for _, depth := range []int{0, 1} {
		if _, err := NewOverlayTree(1, depth, 4, 1, 0, nil); err != nil {
			t.Errorf("depth-%d lossless tree refused: %v", depth, err)
		}
	}
	for name, args := range map[string]struct {
		depth, fanout, lossy int
		edgeP                float64
	}{
		"edgeP 1":                 {2, 4, 1, 1},
		"edgeP NaN":               {2, 4, 1, math.NaN()},
		"negative lossy edges":    {2, 4, -1, 0.5},
		"lossy edges past fanout": {2, 2, 3, 0},
		"lossy depth-1 tree":      {1, 4, 1, 0.5},
	} {
		if _, err := NewOverlayTree(1, args.depth, args.fanout, args.lossy, args.edgeP, nil); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestTreeBuildErrors pins addNode/SetEdge bounds checking.
func TestTreeBuildErrors(t *testing.T) {
	tree := newTree(1, nil)
	if _, err := tree.addNode(1, nil); err == nil {
		t.Fatal("AddNode under a missing parent accepted")
	}
	if _, err := tree.addNode(-1, nil); err == nil {
		t.Fatal("AddNode under a negative parent accepted")
	}
	if err := tree.SetEdge(0, Bernoulli{P: 0.5}); err == nil {
		t.Fatal("SetEdge on the source accepted")
	}
	if err := tree.SetEdge(7, Bernoulli{P: 0.5}); err == nil {
		t.Fatal("SetEdge past the tree accepted")
	}
}

// TestTreeSharedFate is the correlation property that motivates the model:
// every receiver under one lossy edge loses the *identical* packet set.
// Here edge 1 (feeding the first mid relay) is the only lossy element, so
// receivers on leaves 3 and 4 — different last hops, different RNG streams
// — must still produce byte-identical patterns, while receivers under the
// other mid relay lose nothing.
func TestTreeSharedFate(t *testing.T) {
	tree := newTree(42, nil)
	for _, parent := range []int{0, 0, 1, 1, 2, 2} {
		if _, err := tree.addNode(parent, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.SetEdge(1, Bernoulli{P: 0.4}); err != nil {
		t.Fatal(err)
	}
	const n = 512
	// Receivers 0 and 1 sit on leaves 3 and 4, both under edge 1.
	under0 := sampled(tree.receiver(0), stats.NewRNG(1000), n)
	under1 := sampled(tree.receiver(1), stats.NewRNG(2000), n)
	if !reflect.DeepEqual(under0, under1) {
		t.Fatal("receivers under the same lossy edge diverge")
	}
	lost := 0
	for i := 1; i <= n; i++ {
		if !under0[i] {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("lossy edge lost nothing; test is vacuous")
	}
	// Receivers 2 and 3 sit on leaves 5 and 6, under the lossless branch.
	for r := 2; r <= 3; r++ {
		got := sampled(tree.receiver(r), stats.NewRNG(uint64(r)), n)
		for i := 1; i <= n; i++ {
			if !got[i] {
				t.Fatalf("receiver %d under the lossless branch lost packet %d", r, i)
			}
		}
	}
}

// TestTreeMarginalRate: sampling receiver marginals over many independent
// trials, the per-receiver loss rate must converge to
// 1 - prod(1 - p_e) over the path edges and last hop — and Rate() must
// report that same product form exactly.
func TestTreeMarginalRate(t *testing.T) {
	const (
		edgeP  = 0.05
		leafP  = 0.1
		n      = 64
		trials = 4000
	)
	tree := testTree(t, 7, edgeP, leafP)
	want := 1 - (1-edgeP)*(1-edgeP)*(1-leafP) // two tree edges + last hop
	m := tree.marginal(0)
	if got := m.Rate(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Rate() = %v, want %v", got, want)
	}
	rng := stats.NewRNG(123)
	recv := make([]bool, n+1)
	lost := 0
	for trial := 0; trial < trials; trial++ {
		m.SampleInto(rng, recv)
		for i := 1; i <= n; i++ {
			if !recv[i] {
				lost++
			}
		}
	}
	got := float64(lost) / float64(trials*n)
	// 4 sigma over trials*n Bernoulli draws.
	tol := 4 * math.Sqrt(want*(1-want)/float64(trials*n))
	if math.Abs(got-want) > tol {
		t.Fatalf("marginal loss rate %v, want %v +- %v", got, want, tol)
	}
}

// TestTreeFlatParity: with lossless tree edges the composed receiver model
// must be bit-identical to the bare last-hop model — same pattern AND the
// same number of RNG draws, so downstream draws stay aligned too. This is
// the property RunOverlay leans on to reproduce flat netsim numbers with
// relays off.
func TestTreeFlatParity(t *testing.T) {
	leaf, err := NewGilbertElliott(0.05, 0.3, 0.01, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	tree := newTree(11, leaf)
	for _, parent := range []int{0, 0, 1, 2} {
		if _, err := tree.addNode(parent, nil); err != nil {
			t.Fatal(err)
		}
	}
	const n = 96
	for _, mk := range []func(int) Model{tree.receiver, tree.marginal} {
		for r := 0; r < 3; r++ {
			rngTree := stats.NewRNG(500 + uint64(r))
			rngFlat := stats.NewRNG(500 + uint64(r))
			a := sampled(mk(r), rngTree, n)
			b := sampled(leaf, rngFlat, n)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("receiver %d: lossless-edge tree pattern differs from flat leaf model", r)
			}
			if rngTree.Uint64() != rngFlat.Uint64() {
				t.Fatalf("receiver %d: tree model consumed a different number of RNG draws", r)
			}
		}
	}
}

// TestTreeDeterminism: the shared edge patterns come from the tree seed,
// so re-sampling any receiver from an equal RNG state — sequentially or
// from many goroutines at once — reproduces the identical pattern. This is
// the property that makes RunOverlay byte-identical at any worker count.
func TestTreeDeterminism(t *testing.T) {
	tree := testTree(t, 99, 0.15, 0.2)
	const (
		n         = 128
		receivers = 8
	)
	want := make([][]bool, receivers)
	for r := range want {
		want[r] = sampled(tree.receiver(r), stats.NewRNG(uint64(r)*13+1), n)
	}
	// Re-sample every receiver concurrently; each goroutine derives its
	// own treePath (the per-receiver models hold scratch and are not
	// shared), mimicking the netsim worker pool at a high worker count.
	var wg sync.WaitGroup
	got := make([][]bool, receivers)
	for r := 0; r < receivers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			got[r] = sampled(tree.receiver(r), stats.NewRNG(uint64(r)*13+1), n)
		}(r)
	}
	wg.Wait()
	for r := range want {
		if !reflect.DeepEqual(got[r], want[r]) {
			t.Fatalf("receiver %d: concurrent resample diverged", r)
		}
	}
}

// treeTestModels builds tree-derived Models for the SampleInto contract
// tests below, covering shared and marginal modes, lossy and lossless
// edges.
func treeTestModels(t *testing.T) []Model {
	t.Helper()
	lossy := testTree(t, 5, 0.2, 0.3)
	clean := testTree(t, 5, 0, 0.3)
	return []Model{
		lossy.receiver(0),
		lossy.marginal(1),
		clean.receiver(2),
		clean.marginal(3),
	}
}

// TestTreeSampleIntoZeroLength mirrors TestSampleIntoZeroLength:
// degenerate destinations are no-ops, never panics — and draw nothing, so
// the caller's RNG stream stays aligned.
func TestTreeSampleIntoZeroLength(t *testing.T) {
	for _, m := range treeTestModels(t) {
		for _, recv := range [][]bool{nil, {}, make([]bool, 1)} {
			rng := stats.NewRNG(1)
			before := stats.NewRNG(1).Uint64()
			m.SampleInto(rng, recv) // must not panic
			if got := rng.Uint64(); got != before {
				t.Fatalf("%s: zero-length SampleInto consumed RNG draws", m.Name())
			}
		}
	}
	tree := testTree(t, 5, 0.2, 0.3)
	for _, recv := range [][]bool{nil, {}, make([]bool, 1)} {
		tree.EdgePatternInto(1, recv) // must not panic
	}
}

// TestTreeSampleIntoIndexZeroUntouched mirrors the 1-based contract.
func TestTreeSampleIntoIndexZeroUntouched(t *testing.T) {
	for _, m := range treeTestModels(t) {
		recv := make([]bool, 9)
		recv[0] = true // sentinel
		m.SampleInto(stats.NewRNG(5), recv)
		if !recv[0] {
			t.Errorf("%s: SampleInto wrote index 0", m.Name())
		}
	}
}

// TestTreeSampleIntoReuseOverwrites mirrors the scratch-reuse contract:
// every position 1..n is rewritten with no state leaking between calls.
func TestTreeSampleIntoReuseOverwrites(t *testing.T) {
	for _, m := range treeTestModels(t) {
		scratch := make([]bool, 33)
		want := sampled(m, stats.NewRNG(77), 32)
		for i := 1; i < len(scratch); i++ {
			scratch[i] = !want[i]
		}
		m.SampleInto(stats.NewRNG(77), scratch)
		if !reflect.DeepEqual(scratch[1:], want[1:]) {
			t.Errorf("%s: reused scratch differs from fresh sample", m.Name())
		}
	}
}

// TestTreeSampleIntoShrinkingReuse mirrors the aliasing shape netsim's
// per-receiver buffers produce: progressively shorter prefixes of one
// backing array, tail beyond each length untouched. The tree models also
// reuse an internal scratch slice across these calls, so this doubles as
// a scratch-shrink regression test.
func TestTreeSampleIntoShrinkingReuse(t *testing.T) {
	for _, m := range treeTestModels(t) {
		backing := make([]bool, 17)
		for i := range backing {
			backing[i] = true
		}
		m.SampleInto(stats.NewRNG(3), backing[:9])
		tail := append([]bool(nil), backing[9:]...)
		m.SampleInto(stats.NewRNG(4), backing[:5])
		if !reflect.DeepEqual(backing[9:], tail) {
			t.Errorf("%s: write past the slice length", m.Name())
		}
	}
}
