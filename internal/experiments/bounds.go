package experiments

import (
	"io"

	"mcauth/internal/catalog"
	"mcauth/internal/crypto"
	"mcauth/internal/depgraph"
	"mcauth/internal/loss"
)

// boundsRow is one packet's Equation (1) bracket around its exact
// authentication probability.
type boundsRow struct {
	Packet int // reversed index (1 = signature packet)
	Lower  float64
	Exact  float64
	Upper  float64
	Paths  int // vertex-disjoint paths from the signature packet
}

// boundsSeries evaluates Equation (1) on EMSS E_{2,1} with n = 18 at
// p = 0.3: the lower bound assumes maximally overlapping paths (only the
// shortest matters), the upper bound assumes disjoint paths.
func boundsSeries() ([]boundsRow, error) {
	const (
		n = 18
		p = 0.3
	)
	e, err := catalog.Build(catalog.Spec{ID: "emss", N: n, M: 2, D: 1}, crypto.NewSignerFromString("bounds"))
	if err != nil {
		return nil, err
	}
	g, err := e.Scheme.Graph()
	if err != nil {
		return nil, err
	}
	exact, err := g.ExactAuthProbDelivery(depgraph.Delivery{Channel: loss.Bernoulli{P: p}.Channel()})
	if err != nil {
		return nil, err
	}
	rows := make([]boundsRow, 0, n-1)
	for rev := 2; rev <= n; rev++ {
		send := n + 1 - rev
		b, err := g.AuthProbBounds(send, p, 100000)
		if err != nil {
			return nil, err
		}
		disjoint, err := g.VertexDisjointPaths(send)
		if err != nil {
			return nil, err
		}
		rows = append(rows, boundsRow{
			Packet: rev,
			Lower:  b.Lower,
			Exact:  exact.Q[send],
			Upper:  b.Upper,
			Paths:  disjoint,
		})
	}
	return rows, nil
}

func boundsExperiment() Experiment {
	e := Experiment{
		ID:    "bounds",
		Title: "Equation (1): best/worst-case topology bounds vs exact q_i (EMSS E_{2,1}, n=18, p=0.3)",
		Expectation: "lower <= exact <= upper everywhere; the bracket widens with distance from the " +
			"signature packet as path overlap grows",
	}
	e.Run = func(w io.Writer) error {
		if err := banner(w, e); err != nil {
			return err
		}
		rows, err := boundsSeries()
		if err != nil {
			return err
		}
		t := newTable(w, "packet (rev)", "Eq(1) lower", "exact q_i", "Eq(1) upper", "disjoint paths")
		for _, r := range rows {
			t.row(itoa(r.Packet), f3(r.Lower), f3(r.Exact), f3(r.Upper), itoa(r.Paths))
		}
		return t.flush()
	}
	return e
}
