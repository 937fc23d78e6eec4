package analysis

import (
	"math"
	"testing"

	"mcauth/internal/stats"
)

func TestTESLAXi(t *testing.T) {
	c := TESLA{N: 1000, P: 0.1, TDisc: 1.0, Mu: 0.5, Sigma: 0.25}
	want := stats.NormalCDF(1.0, 0.5, 0.25)
	if got := c.Xi(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Xi = %v, want %v", got, want)
	}
}

func TestTESLAQMinEquation7(t *testing.T) {
	c := TESLA{N: 1000, P: 0.2, TDisc: 1.0, Mu: 0.3, Sigma: 0.1}
	qmin, err := c.QMin()
	if err != nil {
		t.Fatal(err)
	}
	want := 0.8 * stats.NormalCDF(1.0, 0.3, 0.1)
	if math.Abs(qmin-want) > 1e-12 {
		t.Errorf("QMin = %v, want %v", qmin, want)
	}
}

func TestTESLAQShape(t *testing.T) {
	c := TESLA{N: 100, P: 0.3, TDisc: 2.0, Mu: 0.5, Sigma: 0.2}
	res, err := c.Q()
	if err != nil {
		t.Fatal(err)
	}
	// λ_i shrinks toward the end of the chain (fewer later packets can
	// disclose the key), so q_i is non-increasing in i.
	for i := 2; i <= 100; i++ {
		if res.Q[i] > res.Q[i-1]+1e-12 {
			t.Errorf("Q[%d] = %v > Q[%d] = %v", i, res.Q[i], i-1, res.Q[i-1])
		}
	}
	// The last packet's q equals the closed-form q_min.
	qmin, err := c.QMin()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Q[100]-qmin) > 1e-12 {
		t.Errorf("Q[n] = %v, want QMin %v", res.Q[100], qmin)
	}
	if math.Abs(res.QMin-qmin) > 1e-12 {
		t.Errorf("res.QMin = %v, want %v", res.QMin, qmin)
	}
}

func TestTESLARobustToLossWithAmpleDisclosure(t *testing.T) {
	// Paper: with TDisc >> mu, sigma, TESLA degrades only as (1-p).
	c := TESLA{N: 1000, P: 0.5, TDisc: 10, Mu: 0.5, Sigma: 0.1}
	qmin, err := c.QMin()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(qmin-0.5) > 1e-9 {
		t.Errorf("QMin = %v, want ~0.5 = 1-p", qmin)
	}
}

func TestTESLACollapsesWhenDisclosureTooShort(t *testing.T) {
	// TDisc far below the mean delay: almost every packet arrives after
	// its key has been disclosed and must be dropped.
	c := TESLA{N: 1000, P: 0.1, TDisc: 0.2, Mu: 1.0, Sigma: 0.1}
	qmin, err := c.QMin()
	if err != nil {
		t.Fatal(err)
	}
	if qmin > 1e-6 {
		t.Errorf("QMin = %v, want ~0", qmin)
	}
}

func TestTESLAMonotoneInTDisc(t *testing.T) {
	prev := -1.0
	for _, td := range []float64{0.5, 1, 2, 4} {
		qmin, err := TESLA{N: 1000, P: 0.1, TDisc: td, Mu: 0.8, Sigma: 0.3}.QMin()
		if err != nil {
			t.Fatal(err)
		}
		if qmin < prev-1e-12 {
			t.Errorf("QMin fell as TDisc rose to %v", td)
		}
		prev = qmin
	}
}

func TestTESLAWithAlpha(t *testing.T) {
	c, err := TESLAWithAlpha(1000, 0.1, 1.0, 0.5, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Mu-0.5) > 1e-12 {
		t.Errorf("Mu = %v, want 0.5", c.Mu)
	}
	if _, err := TESLAWithAlpha(1000, 0.1, 1.0, 1.5, 0.2); err == nil {
		t.Error("alpha > 1 should fail")
	}
	if _, err := TESLAWithAlpha(1000, 0.1, 1.0, -0.1, 0.2); err == nil {
		t.Error("negative alpha should fail")
	}
}

func TestTESLAValidation(t *testing.T) {
	cases := []TESLA{
		{N: 0, P: 0.1, TDisc: 1},
		{N: 10, P: -0.1, TDisc: 1},
		{N: 10, P: 0.1, TDisc: -1},
		{N: 10, P: 0.1, TDisc: 1, Mu: -1},
		{N: 10, P: 0.1, TDisc: 1, Sigma: -1},
	}
	for _, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should fail", c)
		}
	}
}

func TestTESLAQWithXi(t *testing.T) {
	// With xi = Phi((TDisc-Mu)/Sigma) the external-xi path must agree
	// with the built-in Gaussian path exactly.
	c := TESLA{N: 50, P: 0.25, TDisc: 1.0, Mu: 0.4, Sigma: 0.15}
	builtin, err := c.Q()
	if err != nil {
		t.Fatal(err)
	}
	external, err := c.QWithXi(c.Xi())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if math.Abs(builtin.Q[i]-external.Q[i]) > 1e-12 {
			t.Errorf("Q[%d]: %v vs %v", i, builtin.Q[i], external.Q[i])
		}
	}
	qmin, err := c.QMinWithXi(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(qmin-0.75*0.5) > 1e-12 {
		t.Errorf("QMinWithXi = %v, want 0.375", qmin)
	}
	if _, err := c.QWithXi(1.5); err == nil {
		t.Error("xi > 1 should fail")
	}
	if _, err := c.QMinWithXi(-0.1); err == nil {
		t.Error("negative xi should fail")
	}
}
