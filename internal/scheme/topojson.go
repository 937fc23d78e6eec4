package scheme

import (
	"encoding/json"
	"fmt"
	"io"

	"mcauth/internal/depgraph"
)

// topologyJSON is the serialized form of a Topology.
type topologyJSON struct {
	Name  string   `json:"name"`
	N     int      `json:"n"`
	Root  int      `json:"root"`
	Edges [][2]int `json:"edges"`
}

// SaveTopology writes a topology as JSON, so designs can be exported,
// hand-edited and re-analyzed (`mcgraph -export` / `mcgraph -topo`).
func SaveTopology(w io.Writer, t Topology) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(topologyJSON(t)); err != nil {
		return fmt.Errorf("scheme: encode topology: %w", err)
	}
	return nil
}

// LoadTopology parses a JSON topology and validates it structurally
// (well-formed DAG, rooted).
func LoadTopology(r io.Reader) (Topology, error) {
	var tj topologyJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tj); err != nil {
		return Topology{}, fmt.Errorf("scheme: decode topology: %w", err)
	}
	t := Topology(tj)
	g, err := depgraph.New(t.N, t.Root)
	if err != nil {
		return Topology{}, fmt.Errorf("scheme: topology %q: %w", t.Name, err)
	}
	for _, e := range t.Edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return Topology{}, fmt.Errorf("scheme: topology %q: %w", t.Name, err)
		}
	}
	if err := g.Validate(); err != nil {
		return Topology{}, fmt.Errorf("scheme: topology %q: %w", t.Name, err)
	}
	if t.Name == "" {
		t.Name = "custom"
	}
	return t, nil
}

// TopologyOf extracts a Topology from any scheme's dependence graph, so
// existing constructions can be exported and modified.
func TopologyOf(s Scheme) (Topology, error) {
	g, err := s.Graph()
	if err != nil {
		return Topology{}, err
	}
	return Topology{
		Name:  s.Name(),
		N:     g.N(),
		Root:  g.Root(),
		Edges: g.Edges(),
	}, nil
}
