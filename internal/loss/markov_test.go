package loss

import (
	"math"
	"testing"

	"mcauth/internal/stats"
)

func TestMarkovChainValidation(t *testing.T) {
	cases := []struct {
		name string
		tr   [][]float64
		lp   []float64
	}{
		{"empty", nil, nil},
		{"mismatched loss", [][]float64{{1}}, []float64{0.1, 0.2}},
		{"ragged row", [][]float64{{0.5, 0.5}, {1}}, []float64{0, 1}},
		{"row not stochastic", [][]float64{{0.5, 0.4}, {0.5, 0.5}}, []float64{0, 1}},
		{"negative entry", [][]float64{{1.1, -0.1}, {0.5, 0.5}}, []float64{0, 1}},
		{"loss out of range", [][]float64{{0.5, 0.5}, {0.5, 0.5}}, []float64{0, 1.5}},
		{"NaN entry", [][]float64{{math.NaN(), 0.5}, {0.5, 0.5}}, []float64{0, 1}},
		{"NaN loss", [][]float64{{0.5, 0.5}, {0.5, 0.5}}, []float64{0, math.NaN()}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewMarkovChain(tt.tr, tt.lp); err == nil {
				t.Error("should fail validation")
			}
		})
	}
}

func TestMarkovChainMatchesGilbertElliott(t *testing.T) {
	ge, err := NewGilbertElliott(0.05, 0.3, 0.01, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	// The same chain in general m-state form.
	mc, err := NewMarkovChain(ge.Channel().Trans, ge.Channel().Loss)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mc.Rate()-ge.Rate()) > 1e-9 {
		t.Errorf("rates differ: markov %v vs gilbert %v", mc.Rate(), ge.Rate())
	}
	st := mc.Channel().Stationary
	if math.Abs(st[1]-ge.stationaryBad()) > 1e-9 {
		t.Errorf("stationary bad %v vs %v", st[1], ge.stationaryBad())
	}
	// Measured loss rates agree.
	rng := stats.NewRNG(1)
	count := func(m Model) float64 {
		lost := 0
		const trials, n = 1000, 200
		for i := 0; i < trials; i++ {
			recv := sampled(m, rng, n)
			for j := 1; j <= n; j++ {
				if !recv[j] {
					lost++
				}
			}
		}
		return float64(lost) / (1000 * 200)
	}
	if math.Abs(count(mc)-count(ge)) > 0.01 {
		t.Error("sampled rates diverge between equivalent models")
	}
}

func TestMarkovChainThreeState(t *testing.T) {
	// Good -> degraded -> outage cascade.
	tr := [][]float64{
		{0.95, 0.05, 0.00},
		{0.30, 0.60, 0.10},
		{0.20, 0.00, 0.80},
	}
	lp := []float64{0.01, 0.3, 1.0}
	mc, err := NewMarkovChain(tr, lp)
	if err != nil {
		t.Fatal(err)
	}
	st := mc.Channel().Stationary
	sum := 0.0
	for _, p := range st {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("stationary sums to %v", sum)
	}
	// Stationarity: pi * P = pi.
	for j := range st {
		acc := 0.0
		for i := range st {
			acc += st[i] * tr[i][j]
		}
		if math.Abs(acc-st[j]) > 1e-9 {
			t.Errorf("stationary violated at state %d: %v vs %v", j, acc, st[j])
		}
	}
	// Measured rate matches analytic.
	rng := stats.NewRNG(2)
	lost := 0
	const trials, n = 2000, 100
	for i := 0; i < trials; i++ {
		recv := sampled(mc, rng, n)
		for j := 1; j <= n; j++ {
			if !recv[j] {
				lost++
			}
		}
	}
	measured := float64(lost) / (trials * n)
	if math.Abs(measured-mc.Rate()) > 0.01 {
		t.Errorf("measured %v vs analytic %v", measured, mc.Rate())
	}
}

func TestMarkovChainOutageBursts(t *testing.T) {
	// A sticky outage state must produce long loss runs.
	tr := [][]float64{
		{0.98, 0.02},
		{0.10, 0.90},
	}
	mc, err := NewMarkovChain(tr, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(3)
	longest := 0
	for trial := 0; trial < 200; trial++ {
		recv := sampled(mc, rng, 300)
		run := 0
		for i := 1; i <= 300; i++ {
			if !recv[i] {
				run++
				if run > longest {
					longest = run
				}
			} else {
				run = 0
			}
		}
	}
	if longest < 15 {
		t.Errorf("longest loss run %d; expected long outage bursts", longest)
	}
}

func TestMarkovChainName(t *testing.T) {
	mc, err := NewMarkovChain([][]float64{{1}}, []float64{0.25})
	if err != nil {
		t.Fatal(err)
	}
	if mc.Name() == "" {
		t.Error("empty name")
	}
	if math.Abs(mc.Rate()-0.25) > 1e-12 {
		t.Errorf("single-state rate %v, want 0.25", mc.Rate())
	}
}
