// Package depgraph implements the paper's central abstraction: the
// dependence-graph of a multicast authentication scheme (Definition 1).
//
// A dependence-graph G = (V, E, L) is an acyclic labeled directed graph
// whose vertices are the packets P_1..P_n of a block (indexed in send
// order), with a distinguished root vertex P_sign where the digital
// signature applies. An edge (P_i, P_j) means P_i ↪ P_j: if P_i can be
// authenticated by a receiver then P_j can also be authenticated using the
// information carried by P_i (in hash-chained schemes, P_i carries the hash
// of P_j). The label on edge (P_i, P_j) is the sequence-number difference
// i - j. Every vertex must be reachable from the root, otherwise the packet
// cannot be authenticated even without loss.
//
// From this structure the package derives the paper's metrics:
// authentication probability (exact, Monte-Carlo and bounded forms),
// communication overhead (Equations 2-3), deterministic receiver delay
// (Equation 4) and receiver buffer sizes.
package depgraph

import (
	"errors"
	"fmt"
	"sort"
)

// Common validation errors.
var (
	errNotRooted = errors.New("depgraph: some vertex is unreachable from the root")
	errCyclic    = errors.New("depgraph: graph contains a cycle")
)

// Graph is a dependence-graph over packets 1..n. The zero value is not
// usable; construct with New.
type Graph struct {
	n    int
	root int
	out  [][]int // out[i] lists j with edge i -> j, sorted: the edge set itself
	in   [][]int // in[j] lists i with edge i -> j, sorted
	m    int     // number of edges
}

// New creates the dependence-graph over packets 1..n with the given root
// vertex (the packet the signature applies to, usually 1 or n) and edges,
// each rejected as AddEdge would reject it. The neighbour rows are cut from
// two flat arrays, one row per vertex with room for exactly its edges.
func New(n, root int, edges ...[2]int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("depgraph: block size %d must be >= 1", n)
	}
	if root < 1 || root > n {
		return nil, fmt.Errorf("depgraph: root %d out of [1,%d]", root, n)
	}
	g := &Graph{n: n, root: root, m: len(edges)}
	deg := make([]int, n+1)
	for _, e := range edges {
		if err := g.checkEdge(e[0], e[1]); err != nil {
			return nil, err
		}
		deg[e[0]]++
	}
	g.out = carve(deg, len(edges))
	clear(deg)
	for _, e := range edges {
		deg[e[1]]++
	}
	g.in = carve(deg, len(edges))
	for _, e := range edges {
		g.out[e[0]] = append(g.out[e[0]], e[1])
		g.in[e[1]] = append(g.in[e[1]], e[0])
	}
	for v := 1; v <= n; v++ {
		sort.Ints(g.out[v])
		sort.Ints(g.in[v])
		for i, row := 1, g.out[v]; i < len(row); i++ {
			if row[i] == row[i-1] {
				return nil, fmt.Errorf("depgraph: duplicate edge %d -> %d", v, row[i])
			}
		}
	}
	return g, nil
}

// carve returns one empty row per vertex, row v with room for deg[v]
// entries, cut from one array of total entries. Each row's capacity ends
// where the next row begins, so appending past it reallocates instead of
// writing into the neighbouring row.
func carve(deg []int, total int) [][]int {
	flat := make([]int, total)
	rows := make([][]int, len(deg))
	for v, d := range deg {
		rows[v], flat = flat[:0:d], flat[d:]
	}
	return rows
}

// N returns the number of packets in the block.
func (g *Graph) N() int { return g.n }

// Root returns the index of P_sign.
func (g *Graph) Root() int { return g.root }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.m }

// AddEdge inserts the dependence edge from -> to (packet `from` carries the
// authentication information for packet `to`). It rejects out-of-range
// endpoints, self-loops, duplicate edges, and edges into the root (nothing
// authenticates P_sign except the signature itself).
func (g *Graph) AddEdge(from, to int) error {
	if err := g.checkEdge(from, to); err != nil {
		return err
	}
	row := g.out[from]
	at := sort.SearchInts(row, to)
	if at < len(row) && row[at] == to {
		return fmt.Errorf("depgraph: duplicate edge %d -> %d", from, to)
	}
	g.out[from] = insertAt(row, at, to)
	g.in[to] = insertAt(g.in[to], sort.SearchInts(g.in[to], from), from)
	g.m++
	return nil
}

// checkEdge is the part of AddEdge's check that needs no other edge:
// endpoints in range, no self-loop, nothing into the root.
func (g *Graph) checkEdge(from, to int) error {
	if from < 1 || from > g.n {
		return fmt.Errorf("depgraph: edge source %d out of [1,%d]", from, g.n)
	}
	if to < 1 || to > g.n {
		return fmt.Errorf("depgraph: edge target %d out of [1,%d]", to, g.n)
	}
	if from == to {
		return fmt.Errorf("depgraph: self-loop on vertex %d", from)
	}
	if to == g.root {
		return fmt.Errorf("depgraph: edge into root %d (the root is authenticated by the signature)", g.root)
	}
	return nil
}

// MustAddEdge is AddEdge for construction code paths where the edge is known
// valid by construction; it panics on error. Scheme builders validate their
// parameters up front and then use this.
func (g *Graph) MustAddEdge(from, to int) {
	if err := g.AddEdge(from, to); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes the edge from -> to; it fails if the edge does not
// exist. Used by the Section 5 optimizers to prune redundant edges.
func (g *Graph) RemoveEdge(from, to int) error {
	if !g.HasEdge(from, to) {
		return fmt.Errorf("depgraph: no edge %d -> %d", from, to)
	}
	g.out[from] = removeSorted(g.out[from], to)
	g.in[to] = removeSorted(g.in[to], from)
	g.m--
	return nil
}

func removeSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	return append(s[:i], s[i+1:]...)
}

func insertAt(s []int, i, v int) []int {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// HasEdge reports whether the edge from -> to exists; endpoints outside
// 1..n name no edge.
func (g *Graph) HasEdge(from, to int) bool {
	if from < 1 || from > g.n {
		return false
	}
	row := g.out[from]
	i := sort.SearchInts(row, to)
	return i < len(row) && row[i] == to
}

// Label returns the label i - j of edge (P_i, P_j). It returns an error if
// the edge does not exist.
func (g *Graph) Label(from, to int) (int, error) {
	if !g.HasEdge(from, to) {
		return 0, fmt.Errorf("depgraph: no edge %d -> %d", from, to)
	}
	return from - to, nil
}

// OutDegree returns the out-degree of P_i: the number of hashes (or keys)
// the packet carries (Equation 2).
func (g *Graph) OutDegree(i int) int { return len(g.out[i]) }

// InDegree returns the in-degree of P_i: how many packets carry
// authentication information for it.
func (g *Graph) InDegree(i int) int { return len(g.in[i]) }

// OutNeighbors returns the targets of edges out of i, ascending. Like
// InNeighbors it returns the graph's own slice, not a copy: a read-only view
// that the next AddEdge or RemoveEdge touching i may rewrite in place. Callers
// iterate it and must not write to it; its capacity is clipped, so an append
// copies rather than grow into the graph's storage.
func (g *Graph) OutNeighbors(i int) []int { return g.out[i][:len(g.out[i]):len(g.out[i])] }

// InNeighbors returns the sources of edges into i, ascending: a read-only
// view under the OutNeighbors contract.
func (g *Graph) InNeighbors(i int) []int { return g.in[i][:len(g.in[i]):len(g.in[i])] }

// Edges returns all edges as [2]int{from, to} pairs in deterministic order.
func (g *Graph) Edges() [][2]int {
	edges := make([][2]int, 0, g.m)
	for from := 1; from <= g.n; from++ {
		for _, to := range g.out[from] {
			edges = append(edges, [2]int{from, to})
		}
	}
	return edges
}

// Validate checks the two structural requirements of Definition 1: the
// graph is acyclic, and every vertex is reachable from the root.
func (g *Graph) Validate() error {
	if err := g.checkAcyclic(); err != nil {
		return err
	}
	reach, _ := g.reachableFromRoot()
	for v := 1; v <= g.n; v++ {
		if !reach[v] {
			return fmt.Errorf("%w: vertex %d", errNotRooted, v)
		}
	}
	return nil
}

func (g *Graph) checkAcyclic() error {
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := make([]int8, g.n+1)
	// Iterative DFS to avoid stack growth on deep chains.
	type frame struct {
		v    int
		next int
	}
	var stack []frame // one stack for every start, not one each
	for start := 1; start <= g.n; start++ {
		if state[start] != unvisited {
			continue
		}
		stack = append(stack[:0], frame{v: start})
		state[start] = inStack
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(g.out[f.v]) {
				w := g.out[f.v][f.next]
				f.next++
				switch state[w] {
				case inStack:
					return fmt.Errorf("%w: back edge %d -> %d", errCyclic, f.v, w)
				case unvisited:
					state[w] = inStack
					stack = append(stack, frame{v: w})
				}
				continue
			}
			state[f.v] = done
			stack = stack[:len(stack)-1]
		}
	}
	return nil
}

// reachableFromRoot marks the vertices some path from the root reaches and
// returns them in breadth-first order, root first.
func (g *Graph) reachableFromRoot() (reach []bool, bfs []int) {
	reach = make([]bool, g.n+1)
	reach[g.root] = true
	bfs = append(make([]int, 0, g.n), g.root)
	for head := 0; head < len(bfs); head++ {
		for _, w := range g.out[bfs[head]] {
			if !reach[w] {
				reach[w] = true
				bfs = append(bfs, w)
			}
		}
	}
	return reach, bfs
}

// Unreachable returns the vertices that cannot be authenticated even
// without loss (no path from the root). Probabilistic constructions
// (Section 5) may produce a few such vertices.
func (g *Graph) Unreachable() []int {
	reach, _ := g.reachableFromRoot()
	var out []int
	for v := 1; v <= g.n; v++ {
		if !reach[v] {
			out = append(out, v)
		}
	}
	return out
}

// TopoFromRoot returns the reachable vertices in a topological order
// starting at the root (every edge goes from an earlier to a later position
// in the returned slice). It fails if the graph is cyclic.
func (g *Graph) TopoFromRoot() ([]int, error) {
	if err := g.checkAcyclic(); err != nil {
		return nil, err
	}
	order, _ := g.orderFromRoot()
	return order, nil
}

// orderFromRoot returns the reachable vertices root first, and whether the
// order is topological. It is (Kahn's algorithm over the reachable part)
// unless a cycle is reachable from the root; then no such order exists and
// the breadth-first order is returned instead.
func (g *Graph) orderFromRoot() (order []int, topological bool) {
	_, bfs := g.reachableFromRoot()
	indeg := make([]int, g.n+1)
	for _, v := range bfs {
		for _, w := range g.out[v] {
			indeg[w]++
		}
	}
	order = append(make([]int, 0, len(bfs)), g.root)
	for head := 0; head < len(order); head++ {
		for _, w := range g.out[order[head]] {
			indeg[w]--
			if indeg[w] == 0 {
				order = append(order, w)
			}
		}
	}
	if len(order) < len(bfs) {
		return bfs, false
	}
	return order, true
}

// Clone returns a deep copy of the graph, its rows cut from flat arrays as
// New cuts them.
func (g *Graph) Clone() *Graph {
	return &Graph{n: g.n, root: g.root, m: g.m, out: cloneRows(g.out, g.m), in: cloneRows(g.in, g.m)}
}

// cloneRows copies rows, which hold total entries, into one flat array.
func cloneRows(rows [][]int, total int) [][]int {
	flat := make([]int, 0, total)
	out := make([][]int, len(rows))
	for v, row := range rows {
		flat = append(flat, row...)
		out[v] = flat[len(flat)-len(row) : len(flat) : len(flat)]
	}
	return out
}
