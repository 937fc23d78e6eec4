package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStdNormalCDFKnownValues(t *testing.T) {
	tests := []struct {
		z    float64
		want float64
	}{
		{0, 0.5},
		{1, 0.8413447},
		{-1, 0.1586553},
		{1.959964, 0.975},
		{-1.959964, 0.025},
		{3, 0.9986501},
	}
	for _, tt := range tests {
		got := stdNormalCDF(tt.z)
		if math.Abs(got-tt.want) > 1e-6 {
			t.Errorf("StdNormalCDF(%v) = %v, want %v", tt.z, got, tt.want)
		}
	}
}

func TestNormalCDFShiftScale(t *testing.T) {
	// Phi((x-mu)/sigma) must equal the standardized evaluation.
	got := NormalCDF(2.5, 1.0, 0.5)
	want := stdNormalCDF(3.0)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("NormalCDF(2.5,1,0.5) = %v, want %v", got, want)
	}
}

func TestNormalCDFDegenerateSigma(t *testing.T) {
	if got := NormalCDF(1, 2, 0); got != 0 {
		t.Errorf("NormalCDF below mean with sigma=0 = %v, want 0", got)
	}
	if got := NormalCDF(3, 2, 0); got != 1 {
		t.Errorf("NormalCDF above mean with sigma=0 = %v, want 1", got)
	}
}

func TestStdNormalQuantileInvertsCDF(t *testing.T) {
	for _, p := range []float64{0.01, 0.1, 0.25, 0.5, 0.9, 0.975, 0.999} {
		z, err := stdNormalQuantile(p)
		if err != nil {
			t.Fatalf("StdNormalQuantile(%v): %v", p, err)
		}
		if back := stdNormalCDF(z); math.Abs(back-p) > 1e-9 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, back)
		}
	}
}

func TestStdNormalQuantileRejectsOutOfRange(t *testing.T) {
	for _, p := range []float64{-0.1, 0, 1, 1.5} {
		if _, err := stdNormalQuantile(p); err == nil {
			t.Errorf("StdNormalQuantile(%v) should fail", p)
		}
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Errorf("unexpected summary %+v", s)
	}
	wantVar := (2.25 + 0.25 + 0.25 + 2.25) / 3
	if math.Abs(s.Var-wantVar) > 1e-12 {
		t.Errorf("Var = %v, want %v", s.Var, wantVar)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != errEmptySample {
		t.Errorf("err = %v, want ErrEmptySample", err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1},
		{1, 4},
		{0.5, 2.5},
		{0.25, 1.75},
	}
	for _, tt := range tests {
		got, err := quantile(xs, tt.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	// Input must not be reordered.
	if xs[0] != 4 || xs[3] != 2 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := quantile(nil, 0.5); err == nil {
		t.Error("empty sample should fail")
	}
	if _, err := quantile([]float64{1}, 1.5); err == nil {
		t.Error("out-of-range q should fail")
	}
}

func TestWilsonIntervalCoversPointEstimate(t *testing.T) {
	iv, err := WilsonInterval(80, 100, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !iv.Contains(0.8) {
		t.Errorf("interval %+v does not contain 0.8", iv)
	}
	if iv.Lo < 0.70 || iv.Hi > 0.90 {
		t.Errorf("interval %+v implausibly wide for n=100", iv)
	}
}

func TestWilsonIntervalExtremes(t *testing.T) {
	iv, err := WilsonInterval(0, 50, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo != 0 {
		t.Errorf("zero successes should give Lo=0, got %v", iv.Lo)
	}
	iv, err = WilsonInterval(50, 50, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Hi != 1 {
		t.Errorf("all successes should give Hi=1, got %v", iv.Hi)
	}
}

func TestWilsonIntervalErrors(t *testing.T) {
	cases := []struct{ s, n int }{{-1, 10}, {11, 10}, {5, 0}}
	for _, c := range cases {
		if _, err := WilsonInterval(c.s, c.n, 0.95); err == nil {
			t.Errorf("WilsonInterval(%d,%d) should fail", c.s, c.n)
		}
	}
	if _, err := WilsonInterval(5, 10, 1.0); err == nil {
		t.Error("confidence=1 should fail")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce identical streams")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGBernoulliFrequency(t *testing.T) {
	r := NewRNG(11)
	const trials = 200000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	freq := float64(hits) / trials
	if math.Abs(freq-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency %v", freq)
	}
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
}

func TestRNGNormalMoments(t *testing.T) {
	r := NewRNG(13)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = r.Normal(5, 2)
	}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Mean-5) > 0.05 {
		t.Errorf("mean %v, want ~5", s.Mean)
	}
	if math.Abs(s.StdDev-2) > 0.05 {
		t.Errorf("stddev %v, want ~2", s.StdDev)
	}
}

func TestRNGIntnPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(99)
	child := r.Split()
	if r.Uint64() == child.Uint64() {
		t.Error("split stream should differ from parent")
	}
}

// Property: CDF is monotone non-decreasing.
func TestStdNormalCDFMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return stdNormalCDF(a) <= stdNormalCDF(b)+1e-15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Wilson interval always contains the raw proportion.
func TestWilsonContainsProportionProperty(t *testing.T) {
	f := func(s, n uint8) bool {
		trials := int(n%100) + 1
		successes := int(s) % (trials + 1)
		iv, err := WilsonInterval(successes, trials, 0.95)
		if err != nil {
			return false
		}
		return iv.Contains(float64(successes) / float64(trials))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
