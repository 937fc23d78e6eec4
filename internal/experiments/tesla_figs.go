package experiments

import (
	"io"

	"mcauth/internal/parallel"
	"mcauth/internal/scheme/tesla"
)

// Figure 3 parameters: T_disclose = 1 s (per the paper), loss p = 0.1 (the
// paper leaves p implicit; the surface shape is p-independent up to the
// (1-p) factor). The paper's n = 1000 does not enter Equation 7.
const (
	fig3TDisc = 1.0
	fig3P     = 0.1
)

// fig3Row is one point of the TESLA delay surface.
type fig3Row struct {
	Sigma float64 // delay std-dev, seconds
	Alpha float64 // mu = alpha * TDisc
	QMin  float64
}

// fig3Series computes q_min against network delay mean and jitter,
// evaluating the sweep points on the worker pool.
func fig3Series() ([]fig3Row, error) {
	sigmas := []float64{0.05, 0.1, 0.2, 0.3, 0.5}
	alphas := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	points := make([]fig3Row, 0, len(sigmas)*len(alphas))
	for _, sigma := range sigmas {
		for _, alpha := range alphas {
			points = append(points, fig3Row{Sigma: sigma, Alpha: alpha})
		}
	}
	return parallel.Map(Workers, points, func(_ int, pt fig3Row) (fig3Row, error) {
		qmin, err := tesla.QMin(fig3P, fig3TDisc, pt.Alpha*fig3TDisc, pt.Sigma)
		pt.QMin = qmin
		return pt, err
	})
}

func fig3Experiment() Experiment {
	e := Experiment{
		ID:    "fig3",
		Title: "TESLA q_min vs end-to-end delay mean (mu = alpha*T_disc) and jitter sigma",
		Expectation: "q_min drops as either mu or sigma increases; " +
			"near-(1-p) plateau while T_disc comfortably exceeds mu",
	}
	e.Run = func(w io.Writer) error {
		if err := banner(w, e); err != nil {
			return err
		}
		rows, err := fig3Series()
		if err != nil {
			return err
		}
		t := newTable(w, "sigma(s)", "alpha", "q_min")
		for _, r := range rows {
			t.row(f3(r.Sigma), f3(r.Alpha), f3(r.QMin))
		}
		return t.flush()
	}
	return e
}

// fig4Row is one point of the disclosure-delay sweep.
type fig4Row struct {
	Mu    float64 // mean delay, seconds
	P     float64 // loss rate
	Ratio float64 // TDisc / sigma
	QMin  float64
}

// fig4Sigma fixes the jitter scale; the paper plots against the
// normalized T_disclose/sigma.
const fig4Sigma = 0.1

// fig4Series computes q_min against normalized disclosure delay and
// loss, evaluating the sweep points on the worker pool.
func fig4Series() ([]fig4Row, error) {
	mus := []float64{0.2, 0.5, 0.8}
	ps := []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9}
	ratios := []float64{1, 2, 4, 8, 16}
	points := make([]fig4Row, 0, len(mus)*len(ps)*len(ratios))
	for _, mu := range mus {
		for _, p := range ps {
			for _, ratio := range ratios {
				points = append(points, fig4Row{Mu: mu, P: p, Ratio: ratio})
			}
		}
	}
	return parallel.Map(Workers, points, func(_ int, pt fig4Row) (fig4Row, error) {
		qmin, err := tesla.QMin(pt.P, pt.Ratio*fig4Sigma, pt.Mu, fig4Sigma)
		pt.QMin = qmin
		return pt, err
	})
}

func fig4Experiment() Experiment {
	e := Experiment{
		ID:    "fig4",
		Title: "TESLA q_min vs normalized disclosure delay T_disc/sigma and loss p, per mean delay mu",
		Expectation: "robust to loss (degrades only as 1-p) once T_disc/sigma is large " +
			"relative to mu; collapses when T_disc falls below mu",
	}
	e.Run = func(w io.Writer) error {
		if err := banner(w, e); err != nil {
			return err
		}
		rows, err := fig4Series()
		if err != nil {
			return err
		}
		t := newTable(w, "mu(s)", "p", "T_disc/sigma", "q_min")
		for _, r := range rows {
			t.row(f3(r.Mu), f3(r.P), f1(r.Ratio), f3(r.QMin))
		}
		return t.flush()
	}
	return e
}
