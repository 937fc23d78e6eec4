package depgraph

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mcauth/internal/stats"
)

// chainGraph builds the Rohatgi topology: root P_1, edges i -> i+1.
func chainGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g, err := New(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// emssGraph builds an E_{2,1}-style topology in reversed indexing: root P_1
// (the signature packet), each P_i depends on P_{i-1} and P_{i-2}, i.e.
// edges (i-1) -> i and (i-2) -> i.
func emssGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g, err := New(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= n; i++ {
		if err := g.AddEdge(i-1, i); err != nil {
			t.Fatal(err)
		}
		if i >= 3 {
			if err := g.AddEdge(i-2, i); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name    string
		n, root int
		wantErr bool
	}{
		{"ok", 5, 1, false},
		{"root last", 5, 5, false},
		{"single", 1, 1, false},
		{"zero size", 0, 1, true},
		{"root too small", 5, 0, true},
		{"root too large", 5, 6, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := New(tt.n, tt.root)
			if (err != nil) != tt.wantErr {
				t.Errorf("New(%d,%d) err = %v, wantErr %v", tt.n, tt.root, err, tt.wantErr)
			}
		})
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g, err := New(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name     string
		from, to int
	}{
		{"duplicate", 1, 2},
		{"self loop", 3, 3},
		{"into root", 2, 1},
		{"from out of range", 0, 2},
		{"to out of range", 2, 6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := g.AddEdge(tt.from, tt.to)
			if err == nil {
				t.Fatalf("AddEdge(%d,%d) should fail", tt.from, tt.to)
			}
			// New refuses the same edge in its list with the same error.
			if _, newErr := New(5, 1, [2]int{1, 2}, [2]int{tt.from, tt.to}); newErr == nil || newErr.Error() != err.Error() {
				t.Errorf("New with edge %d -> %d: %v, AddEdge: %v", tt.from, tt.to, newErr, err)
			}
		})
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d after rejected inserts, want 1", g.NumEdges())
	}
}

func TestDegreesAndNeighbors(t *testing.T) {
	g := emssGraph(t, 5)
	if got := g.OutDegree(1); got != 2 { // 1->2, 1->3
		t.Errorf("OutDegree(1) = %d, want 2", got)
	}
	if got := g.InDegree(5); got != 2 { // 3->5, 4->5
		t.Errorf("InDegree(5) = %d, want 2", got)
	}
	if got := g.OutNeighbors(1); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("OutNeighbors(1) = %v", got)
	}
	if got := g.InNeighbors(5); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("InNeighbors(5) = %v", got)
	}
	// The accessors return read-only views with clipped capacity, so an
	// append copies rather than grow into the graph's own storage.
	if out, in := g.OutNeighbors(1), g.InNeighbors(5); cap(out) != len(out) || cap(in) != len(in) {
		t.Errorf("view capacities %d/%d exceed lengths %d/%d", cap(out), cap(in), len(out), len(in))
	}
}

// TestNeighborViews pins the view contract of InNeighbors / OutNeighbors:
// ascending whatever the insertion order, consistent with the degrees and
// with each other after removals, and never shared between a graph and its
// Clone — Prune mutates a clone while the original keeps serving its views.
func TestNeighborViews(t *testing.T) {
	edges := [][2]int{{1, 9}, {1, 3}, {1, 5}, {3, 9}, {5, 9}, {1, 2}, {2, 9}, {1, 4}, {1, 6}, {1, 7}, {1, 8}}
	g, err := New(9, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		g.MustAddEdge(e[0], e[1])
	}
	// New takes the same list in one go, into rows cut from flat arrays.
	flat, err := New(9, 1, edges...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flat.Edges(), g.Edges()) {
		t.Fatalf("New's edges %v, AddEdge's %v", flat.Edges(), g.Edges())
	}
	if err := g.RemoveEdge(1, 5); err != nil {
		t.Fatal(err)
	}
	check := func(g *Graph) {
		t.Helper()
		edges := 0
		for v := 1; v <= g.N(); v++ {
			out, in := g.OutNeighbors(v), g.InNeighbors(v)
			if !sort.IntsAreSorted(out) || !sort.IntsAreSorted(in) {
				t.Fatalf("vertex %d: views not ascending: out %v in %v", v, out, in)
			}
			if len(out) != g.OutDegree(v) || len(in) != g.InDegree(v) {
				t.Fatalf("vertex %d: view lengths %d/%d, degrees %d/%d", v, len(out), len(in), g.OutDegree(v), g.InDegree(v))
			}
			for _, w := range out {
				if !g.HasEdge(v, w) || sort.SearchInts(g.InNeighbors(w), v) == len(g.InNeighbors(w)) {
					t.Fatalf("edge %d -> %d in the out view but not in the graph", v, w)
				}
			}
			for _, u := range in {
				if !g.HasEdge(u, v) {
					t.Fatalf("edge %d -> %d in the in view but not in the graph", u, v)
				}
			}
			edges += len(out)
		}
		if edges != g.NumEdges() {
			t.Fatalf("views hold %d edges, NumEdges %d", edges, g.NumEdges())
		}
	}
	check(g)

	c := g.Clone()
	wantOut := append([]int(nil), g.OutNeighbors(1)...)
	wantIn := append([]int(nil), g.InNeighbors(9)...)
	// Every mutation of the clone that rewrites a neighbour list in place:
	// a removal from the middle, an insertion at the front.
	if err := c.RemoveEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveEdge(2, 9); err != nil {
		t.Fatal(err)
	}
	c.MustAddEdge(4, 9)
	check(c)
	// A full row of New's grows by reallocating, not into the row after it:
	// 4's one in-edge and 5's sit side by side in the flat array.
	flat.MustAddEdge(2, 4)
	check(flat)
	if got := g.OutNeighbors(1); !reflect.DeepEqual(got, wantOut) {
		t.Errorf("mutating the clone rewrote the original's out view: %v, want %v", got, wantOut)
	}
	if got := g.InNeighbors(9); !reflect.DeepEqual(got, wantIn) {
		t.Errorf("mutating the clone rewrote the original's in view: %v, want %v", got, wantIn)
	}
	check(g)
}

func TestLabel(t *testing.T) {
	g := emssGraph(t, 5)
	l, err := g.Label(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if l != -2 {
		t.Errorf("Label(1,3) = %d, want -2", l)
	}
	if _, err := g.Label(3, 1); err == nil {
		t.Error("Label of missing edge should fail")
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	for _, g := range []*Graph{chainGraph(t, 10), emssGraph(t, 10)} {
		if err := g.Validate(); err != nil {
			t.Errorf("Validate() = %v for well-formed graph", err)
		}
	}
}

func TestValidateDetectsUnreachable(t *testing.T) {
	g, err := New(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(3, 4); err != nil {
		t.Fatal(err)
	}
	err = g.Validate()
	if !errors.Is(err, errNotRooted) {
		t.Errorf("Validate() = %v, want ErrNotRooted", err)
	}
	un := g.Unreachable()
	if len(un) != 2 || un[0] != 3 || un[1] != 4 {
		t.Errorf("Unreachable() = %v, want [3 4]", un)
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	g, err := New(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]int{{1, 2}, {2, 3}, {3, 4}, {4, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Validate(); !errors.Is(err, errCyclic) {
		t.Errorf("Validate() = %v, want ErrCyclic", err)
	}
	if _, err := g.TopoFromRoot(); !errors.Is(err, errCyclic) {
		t.Errorf("TopoFromRoot() = %v, want ErrCyclic", err)
	}
}

func TestTopoFromRootOrdering(t *testing.T) {
	g := emssGraph(t, 8)
	order, err := g.TopoFromRoot()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 8 {
		t.Fatalf("topo order covers %d vertices, want 8", len(order))
	}
	pos := make(map[int]int, len(order))
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e[0]] >= pos[e[1]] {
			t.Errorf("edge %v violates topological order", e)
		}
	}
}

func TestEdgesDeterministic(t *testing.T) {
	g := emssGraph(t, 6)
	a := g.Edges()
	b := g.Edges()
	if len(a) != g.NumEdges() {
		t.Fatalf("Edges() returned %d, want %d", len(a), g.NumEdges())
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Edges() order is not deterministic")
		}
	}
}

func TestClone(t *testing.T) {
	g := emssGraph(t, 6)
	c := g.Clone()
	if c.N() != g.N() || c.Root() != g.Root() || c.NumEdges() != g.NumEdges() {
		t.Fatal("clone differs structurally")
	}
	if err := c.AddEdge(1, 6); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(1, 6) {
		t.Error("mutating clone affected original")
	}
}

func TestMustAddEdgePanics(t *testing.T) {
	g, err := New(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAddEdge on invalid edge should panic")
		}
	}()
	g.MustAddEdge(2, 2)
}

func TestWriteDOT(t *testing.T) {
	g := chainGraph(t, 3)
	var sb strings.Builder
	if err := g.WriteDOT(&sb, "rohatgi"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"digraph", "doublecircle", "P1 -> P2", "P2 -> P3", `label="-1"`} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	var sb2 strings.Builder
	if err := g.WriteDOT(&sb2, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb2.String(), "dependence_graph") {
		t.Error("empty name should default")
	}
}

// Property: random DAGs built with only forward edges (i < j) always
// validate as acyclic, and topological order includes exactly the
// root-reachable set.
func TestForwardEdgeGraphsAcyclicProperty(t *testing.T) {
	f := func(seed uint64, size uint8) bool {
		n := int(size%20) + 2
		rng := stats.NewRNG(seed)
		g, err := New(n, 1)
		if err != nil {
			return false
		}
		for i := 1; i < n; i++ {
			for j := i + 1; j <= n; j++ {
				if rng.Bernoulli(0.3) {
					if err := g.AddEdge(i, j); err != nil {
						return false
					}
				}
			}
		}
		if err := g.checkAcyclic(); err != nil {
			return false
		}
		order, err := g.TopoFromRoot()
		if err != nil {
			return false
		}
		return len(order) == n-len(g.Unreachable())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
