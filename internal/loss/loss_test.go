package loss

import (
	"math"
	"slices"
	"testing"

	"mcauth/internal/stats"
)

func measuredLossRate(t *testing.T, m Model, n, trials int, seed uint64) float64 {
	t.Helper()
	rng := stats.NewRNG(seed)
	lost := 0
	for i := 0; i < trials; i++ {
		recv := m.Sample(rng, n)
		if len(recv) != n+1 {
			t.Fatalf("Sample returned %d flags, want %d", len(recv), n+1)
		}
		for j := 1; j <= n; j++ {
			if !recv[j] {
				lost++
			}
		}
	}
	return float64(lost) / float64(trials*n)
}

func TestBernoulliRate(t *testing.T) {
	for _, p := range []float64{0, 0.1, 0.5, 1} {
		m, err := NewBernoulli(p)
		if err != nil {
			t.Fatal(err)
		}
		got := measuredLossRate(t, m, 100, 1000, 1)
		if math.Abs(got-p) > 0.01 {
			t.Errorf("p=%v: measured rate %v", p, got)
		}
		if m.Rate() != p {
			t.Errorf("Rate() = %v, want %v", m.Rate(), p)
		}
	}
}

func TestBernoulliValidation(t *testing.T) {
	if _, err := NewBernoulli(-0.1); err == nil {
		t.Error("negative p should fail")
	}
	if _, err := NewBernoulli(1.1); err == nil {
		t.Error("p>1 should fail")
	}
	if _, err := NewBernoulli(math.NaN()); err == nil {
		t.Error("NaN should fail: it is below no bound and above none")
	}
}

func TestGilbertElliottStationary(t *testing.T) {
	g, err := NewGilbertElliott(0.1, 0.4, 0.01, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	wantBad := 0.1 / 0.5
	if math.Abs(g.stationaryBad()-wantBad) > 1e-12 {
		t.Errorf("StationaryBad = %v, want %v", g.stationaryBad(), wantBad)
	}
	wantRate := 0.8*wantBad + 0.01*(1-wantBad)
	if math.Abs(g.Rate()-wantRate) > 1e-12 {
		t.Errorf("Rate = %v, want %v", g.Rate(), wantRate)
	}
	measured := measuredLossRate(t, g, 200, 2000, 2)
	if math.Abs(measured-wantRate) > 0.01 {
		t.Errorf("measured rate %v, want ~%v", measured, wantRate)
	}
	if math.Abs(g.meanBurstLength()-2.5) > 1e-12 {
		t.Errorf("MeanBurstLength = %v, want 2.5", g.meanBurstLength())
	}
}

func TestGilbertElliottBurstiness(t *testing.T) {
	// With a sticky bad state, losses must cluster: the conditional
	// probability of loss following a loss should far exceed the
	// marginal rate.
	g, err := NewGilbertElliott(0.02, 0.2, 0.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(3)
	var lossPairs, lossTotal int
	for trial := 0; trial < 500; trial++ {
		recv := g.Sample(rng, 200)
		for i := 1; i < 200; i++ {
			if !recv[i] {
				lossTotal++
				if !recv[i+1] {
					lossPairs++
				}
			}
		}
	}
	condLoss := float64(lossPairs) / float64(lossTotal)
	if condLoss < 3*g.Rate() {
		t.Errorf("conditional loss %v not bursty relative to rate %v", condLoss, g.Rate())
	}
}

func TestGilbertElliottValidation(t *testing.T) {
	if _, err := NewGilbertElliott(-0.1, 0.5, 0, 1); err == nil {
		t.Error("negative transition probability should fail")
	}
	if _, err := NewGilbertElliott(0, 0, 0, 1); err == nil {
		t.Error("degenerate chain should fail")
	}
	for i := 0; i < 4; i++ {
		args := [4]float64{0.1, 0.5, 0, 1}
		args[i] = math.NaN()
		if _, err := NewGilbertElliott(args[0], args[1], args[2], args[3]); err == nil {
			t.Errorf("NaN as parameter %d should fail", i)
		}
	}
}

func TestSingleBurst(t *testing.T) {
	m, err := NewSingleBurst(5)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(4)
	for trial := 0; trial < 200; trial++ {
		recv := m.Sample(rng, 50)
		// Exactly one contiguous run of losses, length <= 5.
		runs, runLen := 0, 0
		inRun := false
		for i := 1; i <= 50; i++ {
			if !recv[i] {
				if !inRun {
					runs++
					inRun = true
				}
				runLen++
			} else {
				inRun = false
			}
		}
		if runs != 1 {
			t.Fatalf("found %d loss runs, want 1", runs)
		}
		if runLen > 5 || runLen < 1 {
			t.Fatalf("burst length %d out of [1,5]", runLen)
		}
	}
}

func TestSingleBurstZeroLength(t *testing.T) {
	m, err := NewSingleBurst(0)
	if err != nil {
		t.Fatal(err)
	}
	recv := m.Sample(stats.NewRNG(1), 10)
	for i := 1; i <= 10; i++ {
		if !recv[i] {
			t.Fatal("zero-length burst lost a packet")
		}
	}
	if _, err := NewSingleBurst(-1); err == nil {
		t.Error("negative length should fail")
	}
}

func TestTraceReplay(t *testing.T) {
	m, err := NewTrace([]bool{true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	recv := m.Sample(nil, 6)
	want := []bool{false, false, true, true, false, true, true} // index 0 unused
	for i := 1; i <= 6; i++ {
		if recv[i] != want[i] {
			t.Errorf("recv[%d] = %v, want %v", i, recv[i], want[i])
		}
	}
	if math.Abs(m.Rate()-1.0/3.0) > 1e-12 {
		t.Errorf("Rate = %v, want 1/3", m.Rate())
	}
	if _, err := NewTrace(nil); err == nil {
		t.Error("empty trace should fail")
	}
}

func TestNames(t *testing.T) {
	models := []Model{
		Bernoulli{P: 0.1},
		GilbertElliott{PGoodToBad: 0.1, PBadToGood: 0.5, PBad: 1},
		SingleBurst{Length: 3},
		Trace{Lost: []bool{true}},
	}
	seen := make(map[string]bool)
	for _, m := range models {
		name := m.Name()
		if name == "" || seen[name] {
			t.Errorf("model name %q empty or duplicated", name)
		}
		seen[name] = true
	}
}

func TestPatternAdapter(t *testing.T) {
	m, err := NewBernoulli(0.5)
	if err != nil {
		t.Fatal(err)
	}
	recv := make([]bool, 21)
	if err := PatternInto(m)(stats.NewRNG(9), recv); err != nil {
		t.Fatal(err)
	}
	want := make([]bool, 21)
	m.SampleInto(stats.NewRNG(9), want)
	if !slices.Equal(recv, want) {
		t.Errorf("adapter filled %v, the model samples %v", recv, want)
	}
}
