package experiments

import (
	"fmt"
	"io"
	"slices"

	"mcauth/internal/catalog"
	"mcauth/internal/construct"
	"mcauth/internal/crypto"
	"mcauth/internal/depgraph"
	"mcauth/internal/loss"
	"mcauth/internal/parallel"
	"mcauth/internal/scheme/augchain"
	"mcauth/internal/scheme/emss"
	"mcauth/internal/stats"
)

// burstRow compares schemes under bursty (Gilbert-Elliott) loss at a fixed
// stationary loss rate — the m-state Markov extension the paper names as
// future work. Every bursty q_min is conditioned on the signature packet
// arriving (depgraph.Conditioned); under i.i.d. loss that is the forced
// value every other tool prints.
type burstRow struct {
	Scheme    string
	BurstLen  float64 // mean burst length in packets
	QMinMC    float64 // Monte-Carlo q_min on the dependence graph
	QMinExact float64 // exact evaluation on the same graph
	Bernoulli float64 // same scheme under i.i.d. loss at the same rate
}

// burstRate is the stationary loss rate shared by all burst settings.
const (
	burstRate   = 0.1
	burstN      = 60
	burstTrials = 20000
)

// burstSeries evaluates EMSS/AC/Rohatgi under increasing burstiness.
func burstSeries() ([]burstRow, error) {
	signer := crypto.NewSignerFromString("burst")
	schemes := []struct{ id, name string }{
		{"rohatgi", "rohatgi"},
		{"emss", "emss(E21)"},
		{"augchain", "ac(C33)"},
	}
	burstLens := []float64{1, 2, 5, 10}
	var rows []burstRow
	for _, sc := range schemes {
		e, err := catalog.Build(catalog.Spec{ID: sc.id, N: burstN, M: 2, D: 1, A: 3, B: 3}, signer)
		if err != nil {
			return nil, err
		}
		g, err := e.Scheme.Graph()
		if err != nil {
			return nil, err
		}
		bern, err := loss.NewBernoulli(burstRate)
		if err != nil {
			return nil, err
		}
		mcOpts := depgraph.MCOptions{Workers: Workers}
		base, err := g.MonteCarloAuthProbInto(loss.PatternInto(bern), burstTrials, stats.NewRNG(100), mcOpts)
		if err != nil {
			return nil, err
		}
		for _, bl := range burstLens {
			ge, err := loss.NewBursty(burstRate, bl)
			if err != nil {
				return nil, err
			}
			// Both bursty columns condition on the root arriving: the
			// estimator redraws every lane that lost it.
			d := depgraph.Delivery{Channel: ge.Channel(), Root: depgraph.Conditioned}
			mc, err := g.MonteCarloAuthProbInto(ge.SampleLanes, burstTrials, stats.NewRNG(uint64(bl*17)),
				depgraph.MCOptions{Workers: Workers, Root: d.Root})
			if err != nil {
				return nil, err
			}
			exact, err := g.ExactAuthProbDelivery(d)
			if err != nil {
				return nil, err
			}
			rows = append(rows, burstRow{
				Scheme:    sc.name,
				BurstLen:  bl,
				QMinMC:    mc.QMin,
				QMinExact: exact.QMin,
				Bernoulli: base.QMin,
			})
		}
	}
	return rows, nil
}

func burstExperiment() Experiment {
	e := Experiment{
		ID:    "burst",
		Title: "Extension (paper future work): q_min under 2-state Markov (Gilbert-Elliott) bursty loss at fixed rate 0.1",
		Expectation: "chained schemes degrade as bursts lengthen past their hash-spread; Rohatgi is poor throughout " +
			"(q_min is conditional on the signature packet arriving, in both bursty columns)",
	}
	e.Run = func(w io.Writer) error {
		if err := banner(w, e); err != nil {
			return err
		}
		rows, err := burstSeries()
		if err != nil {
			return err
		}
		t := newTable(w, "scheme", "mean burst", "q_min (bursty MC)", "q_min (bursty exact)", "q_min (iid, same rate)")
		for _, r := range rows {
			t.row(r.Scheme, f1(r.BurstLen), f3(r.QMinMC), f3(r.QMinExact), f3(r.Bernoulli))
		}
		return t.flush()
	}
	return e
}

// constructRow reports the edge cost of meeting a design target with each
// Section 5 builder.
type constructRow struct {
	Target   float64
	Builder  string
	EdgesPkt float64
	QMin     float64
	Met      bool
}

// constructSeries sweeps design targets at n = 100, p = 0.2, one target per
// task on the worker pool (each seeds its own generator).
func constructSeries() ([]constructRow, error) {
	perTarget, err := parallel.Map(Workers, []float64{0.5, 0.8, 0.9, 0.99}, func(_ int, target float64) ([]constructRow, error) {
		c := construct.Constraint{N: 100, P: 0.2, TargetQMin: target, MaxOutDegree: 6}
		greedy, err := construct.Greedy(c)
		if err != nil {
			return nil, err
		}
		policy, m, d, err := construct.PolicySearch(c, 8, 4)
		if err != nil {
			return nil, err
		}
		prob, rho, err := construct.Probabilistic(c, stats.NewRNG(uint64(target*1000)))
		if err != nil {
			return nil, err
		}
		pruned, _, err := construct.Prune(prob.Graph, c)
		if err != nil {
			return nil, err
		}
		return []constructRow{
			{Target: target, Builder: "greedy", EdgesPkt: greedy.EdgesPerPacket, QMin: greedy.QMin, Met: greedy.Met},
			{Target: target, Builder: "policy(m=" + itoa(m) + ",d=" + itoa(d) + ")",
				EdgesPkt: policy.EdgesPerPacket, QMin: policy.QMin, Met: policy.Met},
			{Target: target, Builder: "probabilistic(rho=" + f3(rho) + ")",
				EdgesPkt: prob.EdgesPerPacket, QMin: prob.QMin, Met: prob.Met},
			{Target: target, Builder: "probabilistic+prune",
				EdgesPkt: pruned.EdgesPerPacket, QMin: pruned.QMin, Met: pruned.Met},
		}, nil
	})
	return slices.Concat(perTarget...), err
}

func constructExperiment() Experiment {
	e := Experiment{
		ID:          "construct",
		Title:       "Section 5 design toolkit: edges/packet required to meet a q_min target (n=100, p=0.2)",
		Expectation: "cost grows with the target; the uniform policy is near the greedy cost; random placement is wasteful",
	}
	e.Run = func(w io.Writer) error {
		if err := banner(w, e); err != nil {
			return err
		}
		rows, err := constructSeries()
		if err != nil {
			return err
		}
		t := newTable(w, "target q_min", "builder", "edges/pkt", "achieved q_min", "met")
		for _, r := range rows {
			met := "yes"
			if !r.Met {
				met = "NO"
			}
			t.row(f3(r.Target), r.Builder, f3(r.EdgesPkt), f3(r.QMin), met)
		}
		return t.flush()
	}
	return e
}

// markovGapRow quantifies the gap between the paper's independence
// recurrence and the exact evaluation of the same topology.
type markovGapRow struct {
	Scheme     string
	P          float64
	N          int
	Recurrence float64
	Exact      float64
}

// gapRow evaluates the recurrence and the exact evaluator on one graph.
func gapRow(scheme string, p float64, graph func() (*depgraph.Graph, error)) (markovGapRow, error) {
	g, err := graph()
	if err != nil {
		return markovGapRow{}, err
	}
	rec, err := g.Recurrence(p)
	if err != nil {
		return markovGapRow{}, err
	}
	exact, err := g.ExactAuthProbDelivery(depgraph.Delivery{Channel: loss.Bernoulli{P: p}.Channel()})
	if err != nil {
		return markovGapRow{}, fmt.Errorf("experiments: %s n=%d: %w", scheme, g.N(), err)
	}
	return markovGapRow{Scheme: scheme, P: p, N: g.N(), Recurrence: rec.QMin, Exact: exact.QMin}, nil
}

// markovGapSeries sweeps block size for p in {0.1, 0.3}, for both EMSS
// E_{2,1} and the augmented chain C_{3,2} (blocks aligned to chain
// boundaries). Each (p, n) grid point — two rows — is evaluated on the
// worker pool.
func markovGapSeries() ([]markovGapRow, error) {
	type gapPoint struct {
		p float64
		n int
	}
	var points []gapPoint
	for _, p := range []float64{0.1, 0.3} {
		for _, n := range []int{50, 100, 200, 500, 1000} {
			points = append(points, gapPoint{p: p, n: n})
		}
	}
	pairs, err := parallel.Map(Workers, points, func(_ int, pt gapPoint) ([2]markovGapRow, error) {
		e, err := gapRow("emss(E21)", pt.p, emss.Config{N: pt.n, M: 2, D: 1}.Graph)
		if err != nil {
			return [2]markovGapRow{}, err
		}
		ac, err := gapRow("ac(C32)", pt.p, augchain.Config{N: augchain.AlignN(pt.n, 2), A: 3, B: 2}.Graph)
		return [2]markovGapRow{e, ac}, err
	})
	if err != nil {
		return nil, err
	}
	rows := make([]markovGapRow, 0, 2*len(pairs))
	for _, pair := range pairs {
		rows = append(rows, pair[0], pair[1])
	}
	return rows, nil
}

func markovGapExperiment() Experiment {
	e := Experiment{
		ID:    "markovgap",
		Title: "Extension: the paper's Equation (8) recurrence vs exact Markov evaluation (EMSS E_{2,1})",
		Expectation: "the recurrence upper-bounds the exact q_min and the gap widens with n: " +
			"the exact process has an absorbing failure state (two consecutive losses)",
	}
	e.Run = func(w io.Writer) error {
		if err := banner(w, e); err != nil {
			return err
		}
		rows, err := markovGapSeries()
		if err != nil {
			return err
		}
		t := newTable(w, "scheme", "p", "n", "q_min (recurrence)", "q_min (exact)")
		for _, r := range rows {
			t.row(r.Scheme, f3(r.P), itoa(r.N), f3(r.Recurrence), f3(r.Exact))
		}
		return t.flush()
	}
	return e
}
