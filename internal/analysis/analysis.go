// Package analysis implements the paper's closed forms for the
// authentication probability: the Rohatgi chain (Section 3 example), the
// Wong-Lam authentication tree, and TESLA under the Gaussian delay model
// (Equations 6-7). The independence recurrence of Equations (8)-(10) is a
// function of the dependence graph, (*depgraph.Graph).Recurrence, evaluated
// on the graph a scheme emits.
//
// Packet indices follow the paper's Section 4.2 convention: indices are
// reversed so that the signature packet is P_1 and packets sent earlier
// have higher indices. q_i is then computed toward increasing i.
package analysis

import (
	"fmt"
	"math"
)

// Result carries per-packet authentication probabilities under the reversed
// indexing, plus the block minimum.
type Result struct {
	// Q[i] is q_i for i in 1..N; Q[0] is NaN.
	Q []float64
	// QMin is the minimum q_i over the block, the paper's headline
	// metric.
	QMin float64
}

func newResult(n int) Result {
	q := make([]float64, n+1)
	q[0] = math.NaN()
	return Result{Q: q, QMin: 1}
}

func (r *Result) finalize() {
	for i := 1; i < len(r.Q); i++ {
		if r.Q[i] < r.QMin {
			r.QMin = r.Q[i]
		}
	}
}

func validateNP(n int, p float64) error {
	if n < 1 {
		return fmt.Errorf("analysis: block size %d must be >= 1", n)
	}
	if !(p >= 0 && p <= 1) { // spelled so that NaN fails
		return fmt.Errorf("analysis: loss probability %v out of [0,1]", p)
	}
	return nil
}

// Rohatgi evaluates the simple hash chain of Gennaro-Rohatgi: a single
// path, so q_i = (1-p)^(i-2) (every packet strictly between P_i and the
// signature packet must survive) and q_min = (1-p)^(n-2).
func Rohatgi(n int, p float64) (Result, error) {
	if err := validateNP(n, p); err != nil {
		return Result{}, err
	}
	res := newResult(n)
	res.Q[1] = 1
	for i := 2; i <= n; i++ {
		res.Q[i] = math.Pow(1-p, float64(i-2))
	}
	res.finalize()
	return res, nil
}

// AuthTree evaluates the Wong-Lam authentication tree: every packet carries
// its full authentication information, so q_i = 1 regardless of loss.
func AuthTree(n int, p float64) (Result, error) {
	if err := validateNP(n, p); err != nil {
		return Result{}, err
	}
	res := newResult(n)
	for i := 1; i <= n; i++ {
		res.Q[i] = 1
	}
	res.finalize()
	return res, nil
}
