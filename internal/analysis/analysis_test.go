package analysis

import (
	"math"
	"testing"
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
		if got := authTreeHashesPerPacket(tt.n); got != tt.want {
			t.Errorf("AuthTreeHashesPerPacket(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestAuthTreeValidation(t *testing.T) {
	if _, err := AuthTree(0, 0.1); err == nil {
		t.Error("n=0 should fail")
	}
}
