package delay

import (
	"math"
	"testing"
	"time"

	"mcauth/internal/stats"
)

func TestConstant(t *testing.T) {
	c := Constant{D: 100 * time.Millisecond}
	if got := c.Sample(nil); got != 100*time.Millisecond {
		t.Errorf("Sample = %v", got)
	}
	if c.CDF(99*time.Millisecond) != 0 {
		t.Error("CDF below D should be 0")
	}
	if c.CDF(100*time.Millisecond) != 1 {
		t.Error("CDF at D should be 1")
	}
}

func TestGaussianValidation(t *testing.T) {
	if _, err := NewGaussian(-time.Second, time.Second); err == nil {
		t.Error("negative mu should fail")
	}
	if _, err := NewGaussian(time.Second, -time.Second); err == nil {
		t.Error("negative sigma should fail")
	}
}

func TestGaussianCDF(t *testing.T) {
	g, err := NewGaussian(500*time.Millisecond, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.CDF(500 * time.Millisecond); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("CDF(mu) = %v, want 0.5", got)
	}
	// One sigma above the mean.
	if got := g.CDF(600 * time.Millisecond); math.Abs(got-0.8413447) > 1e-6 {
		t.Errorf("CDF(mu+sigma) = %v, want ~0.8413", got)
	}
}

func TestGaussianSampleMoments(t *testing.T) {
	g, err := NewGaussian(time.Second, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(21)
	xs := make([]float64, 50000)
	for i := range xs {
		d := g.Sample(rng)
		if d < 0 {
			t.Fatal("negative delay sampled")
		}
		xs[i] = float64(d)
	}
	s, err := stats.Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Mean-float64(time.Second)) > float64(3*time.Millisecond) {
		t.Errorf("mean %v, want ~1s", time.Duration(s.Mean))
	}
	if math.Abs(s.StdDev-float64(50*time.Millisecond)) > float64(2*time.Millisecond) {
		t.Errorf("stddev %v, want ~50ms", time.Duration(s.StdDev))
	}
}

func TestGaussianTruncation(t *testing.T) {
	// Mean 0 with large sigma: roughly half the raw samples would be
	// negative; all must be clamped to zero.
	g, err := NewGaussian(0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(22)
	zeros := 0
	for i := 0; i < 1000; i++ {
		d := g.Sample(rng)
		if d < 0 {
			t.Fatal("negative delay")
		}
		if d == 0 {
			zeros++
		}
	}
	if zeros < 300 {
		t.Errorf("expected many truncated samples, got %d/1000", zeros)
	}
}

func TestNames(t *testing.T) {
	g, err := NewGaussian(time.Second, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Model{Constant{D: time.Second}, g} {
		if m.Name() == "" {
			t.Error("empty model name")
		}
	}
}
