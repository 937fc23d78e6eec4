package analysis

import (
	"math"
	"testing"

	"mcauth/internal/crypto"
	"mcauth/internal/scheme/authtree"
)

func TestRohatgiClosedForm(t *testing.T) {
	n, p := 10, 0.2
	res, err := Rohatgi(n, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Q[1] != 1 {
		t.Errorf("Q[1] = %v, want 1 (signature packet)", res.Q[1])
	}
	for i := 2; i <= n; i++ {
		want := math.Pow(1-p, float64(i-2))
		if math.Abs(res.Q[i]-want) > 1e-12 {
			t.Errorf("Q[%d] = %v, want %v", i, res.Q[i], want)
		}
	}
	wantMin := math.Pow(1-p, float64(n-2))
	if math.Abs(res.QMin-wantMin) > 1e-12 {
		t.Errorf("QMin = %v, want %v", res.QMin, wantMin)
	}
}

func TestRohatgiCollapsesWithN(t *testing.T) {
	// The paper's headline observation: Rohatgi's robustness is
	// "incredibly low" — q_min decays geometrically in n.
	small, err := Rohatgi(10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	large, err := Rohatgi(1000, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if large.QMin >= small.QMin {
		t.Errorf("QMin should collapse with n: %v vs %v", large.QMin, small.QMin)
	}
	if large.QMin > 1e-10 {
		t.Errorf("QMin(n=1000, p=0.1) = %v, should be vanishing", large.QMin)
	}
}

func TestRohatgiValidation(t *testing.T) {
	if _, err := Rohatgi(0, 0.1); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := Rohatgi(10, -1); err == nil {
		t.Error("negative p should fail")
	}
	if _, err := Rohatgi(10, 1.5); err == nil {
		t.Error("p>1 should fail")
	}
}

func TestAuthTreeAlwaysOne(t *testing.T) {
	res, err := AuthTree(50, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if res.QMin != 1 {
		t.Errorf("QMin = %v, want 1", res.QMin)
	}
	for i := 1; i <= 50; i++ {
		if res.Q[i] != 1 {
			t.Errorf("Q[%d] = %v, want 1", i, res.Q[i])
		}
	}
}

func TestAuthTreeHashesPerPacket(t *testing.T) {
	// Every packet of a balanced binary authentication tree over n packets
	// carries the sibling hashes along its root path, ceil(log2 n).
	tests := []struct {
		n    int
		want int
	}{
		{1, 0},
		{2, 1},
		{8, 3},
		{9, 4},
		{1000, 10},
	}
	for _, tt := range tests {
		s, err := authtree.New(tt.n, crypto.NewSignerFromString("authtree"))
		if err != nil {
			t.Fatal(err)
		}
		pkts, err := s.Authenticate(1, make([][]byte, tt.n))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			if len(p.Hashes) != tt.want {
				t.Fatalf("n=%d: packet %d carries %d hashes, want %d", tt.n, p.Index, len(p.Hashes), tt.want)
			}
		}
	}
}

func TestAuthTreeValidation(t *testing.T) {
	if _, err := AuthTree(0, 0.1); err == nil {
		t.Error("n=0 should fail")
	}
}

// TestNaNRejected: a NaN parameter fails every closed form's validation
// rather than report perfect, or NaN, authentication.
func TestNaNRejected(t *testing.T) {
	nan := math.NaN()
	tesla := TESLA{N: 10, P: 0.1, TDisc: 1, Mu: 0.5, Sigma: 0.1}
	withNaN := func(set func(*TESLA)) TESLA {
		c := tesla
		set(&c)
		return c
	}
	for name, run := range map[string]func() error{
		"Rohatgi p":      func() error { _, err := Rohatgi(10, nan); return err },
		"AuthTree p":     func() error { _, err := AuthTree(10, nan); return err },
		"TESLA p":        func() error { _, err := withNaN(func(c *TESLA) { c.P = nan }).QMin(); return err },
		"TESLA TDisc":    func() error { _, err := withNaN(func(c *TESLA) { c.TDisc = nan }).QMin(); return err },
		"TESLA Mu":       func() error { _, err := withNaN(func(c *TESLA) { c.Mu = nan }).QMin(); return err },
		"TESLA Sigma":    func() error { _, err := withNaN(func(c *TESLA) { c.Sigma = nan }).QMin(); return err },
		"TESLAWithAlpha": func() error { _, err := TESLAWithAlpha(10, 0.1, 1, nan, 0.1); return err },
		"QWithXi":        func() error { _, err := tesla.QWithXi(nan); return err },
		"QMinWithXi":     func() error { _, err := tesla.QMinWithXi(nan); return err },
	} {
		if run() == nil {
			t.Errorf("%s = NaN accepted", name)
		}
	}
}
