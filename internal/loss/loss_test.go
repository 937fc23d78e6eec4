package loss

import (
	"math"
	"slices"
	"testing"

	"mcauth/internal/depgraph"
	"mcauth/internal/stats"
)

func measuredLossRate(t *testing.T, m Model, n, trials int, seed uint64) float64 {
	t.Helper()
	rng := stats.NewRNG(seed)
	lost := 0
	for i := 0; i < trials; i++ {
		recv := sampled(m, rng, n)
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
		recv := sampled(g, rng, 200)
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

// TestNewBursty: the chain NewBursty builds loses p of the packets in
// stationarity, in bursts of mean length b, and rejects a burst shorter
// than one packet and a rate its Good state cannot reach.
func TestNewBursty(t *testing.T) {
	for _, tt := range []struct {
		p, burst float64
		ok       bool
	}{
		{0.1, 1, true},
		{0.1, 4, true},
		{0.25, 5, true},
		{0, 3, true},
		{0.1, 0.5, false},
		{0.1, math.NaN(), false},
		{0.1, 0, false},
		{1, 4, false},
		{0.6, 1, false},
	} {
		g, err := NewBursty(tt.p, tt.burst)
		if !tt.ok {
			if err == nil {
				t.Errorf("p=%v burst=%v accepted", tt.p, tt.burst)
			}
			continue
		}
		if err != nil {
			t.Fatalf("p=%v burst=%v: %v", tt.p, tt.burst, err)
		}
		if math.Abs(g.Rate()-tt.p) > 1e-12 {
			t.Errorf("p=%v burst=%v: stationary loss %v", tt.p, tt.burst, g.Rate())
		}
		if math.Abs(g.meanBurstLength()-tt.burst) > 1e-12 {
			t.Errorf("p=%v burst=%v: mean burst %v", tt.p, tt.burst, g.meanBurstLength())
		}
		if g.PGood != 0 || g.PBad != 1 {
			t.Errorf("p=%v burst=%v: state losses %v/%v, want 0/1", tt.p, tt.burst, g.PGood, g.PBad)
		}
	}
}

// TestSingleBurst: every pattern loses exactly one contiguous run, which
// starts anywhere in the block and covers Length packets unless the block
// ends first. A run cut short by the end shows up in both settings; with
// Length >= n every run is a suffix of the block.
func TestSingleBurst(t *testing.T) {
	for _, tt := range []struct{ length, n int }{{5, 50}, {20, 10}} {
		m, err := NewSingleBurst(tt.length)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(4)
		truncated := 0
		for trial := 0; trial < 200; trial++ {
			recv := sampled(m, rng, tt.n)
			start := slices.Index(recv[1:], false) + 1
			if start == 0 {
				t.Fatalf("length %d, n %d: nothing lost", tt.length, tt.n)
			}
			end := start + min(tt.length, tt.n-start+1) // first packet after the run
			for i := 1; i <= tt.n; i++ {
				if lost := i >= start && i < end; recv[i] == lost {
					t.Fatalf("length %d, n %d: packet %d received=%v, want the run %d..%d lost and nothing else",
						tt.length, tt.n, i, recv[i], start, end-1)
				}
			}
			if end-start < tt.length {
				truncated++
			}
		}
		if truncated == 0 || (tt.length >= tt.n && truncated != 200) {
			t.Errorf("length %d, n %d: %d of 200 runs cut short by the block's end", tt.length, tt.n, truncated)
		}
	}
}

func TestSingleBurstZeroLength(t *testing.T) {
	m, err := NewSingleBurst(0)
	if err != nil {
		t.Fatal(err)
	}
	recv := sampled(m, stats.NewRNG(1), 10)
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
	recv := sampled(m, nil, 6)
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

// TestPatternAdapter: PatternInto hands the Monte-Carlo kernel the
// lane-native sampler of a Bernoulli (depgraph.BernoulliPatternInto) or a
// Gilbert-Elliott model (SampleLanes), and for any other model SampleInto
// once per lane, lowest lane first — the model's per-trial stream, packed.
func TestPatternAdapter(t *testing.T) {
	const lanes uint64 = 0x8000_0000_0000_0a05
	for _, m := range testModels(t) {
		got := make([]uint64, 21)
		PatternInto(m)(stats.NewRNG(9), got, lanes)
		want := make([]uint64, 21)
		switch m := m.(type) {
		case Bernoulli:
			depgraph.BernoulliPatternInto(m.P)(stats.NewRNG(9), want, lanes)
		case GilbertElliott:
			m.SampleLanes(stats.NewRNG(9), want, lanes)
		default:
			rng, trial := stats.NewRNG(9), make([]bool, 21)
			for lane := 0; lane < 64; lane++ {
				if lanes>>lane&1 == 0 {
					continue
				}
				m.SampleInto(rng, trial)
				for i, arrived := range trial {
					if arrived {
						want[i] |= 1 << lane
					}
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: adapter filled %x, want %x", m.Name(), got, want)
		}
	}
}

// TestLaneSamplersMatchLaw: each lane of a lane-native PatternInto is a
// draw of the model. Over 64 lanes × 300 calls of 100-packet patterns, the loss rate and,
// for Gilbert–Elliott, the rate of a loss following a loss (the burstiness
// the state word carries from packet to packet) match SampleInto's over as
// many patterns, within 4σ of the pooled binomial estimate.
func TestLaneSamplersMatchLaw(t *testing.T) {
	ge, err := NewGilbertElliott(0.05, 0.3, 0.01, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	const n, calls = 100, 300
	type tally struct{ lost, pairs, lostAfterLoss int }
	count := func(tl *tally, arrived func(i int) bool) {
		for i := 1; i <= n; i++ {
			if !arrived(i) {
				tl.lost++
			}
			if i > 1 && !arrived(i-1) {
				tl.pairs++
				if !arrived(i) {
					tl.lostAfterLoss++
				}
			}
		}
	}
	for _, m := range []Model{Bernoulli{P: 0.2}, ge} {
		var lanes, trials tally
		rng := stats.NewRNG(31)
		sample := PatternInto(m)
		recv, trial := make([]uint64, n+1), make([]bool, n+1)
		for c := 0; c < calls; c++ {
			sample(rng, recv, ^uint64(0))
			for lane := 0; lane < 64; lane++ {
				count(&lanes, func(i int) bool { return recv[i]>>lane&1 == 1 })
				m.SampleInto(rng, trial)
				count(&trials, func(i int) bool { return trial[i] })
			}
		}
		agree := func(what string, hitsA, ofA, hitsB, ofB int) {
			a, b := float64(hitsA)/float64(ofA), float64(hitsB)/float64(ofB)
			p := float64(hitsA+hitsB) / float64(ofA+ofB)
			sigma := math.Sqrt(p * (1 - p) * (1/float64(ofA) + 1/float64(ofB)))
			if d := math.Abs(a - b); d > 4*sigma {
				t.Errorf("%s %s: lanes %.4f, SampleInto %.4f (%.1fσ)", m.Name(), what, a, b, d/sigma)
			}
		}
		agree("loss rate", lanes.lost, calls*64*n, trials.lost, calls*64*n)
		agree("loss after loss", lanes.lostAfterLoss, lanes.pairs, trials.lostAfterLoss, trials.pairs)
	}
}

// TestGilbertElliottNeverLeavingBad: a Bad state with PBadToGood = 0 is one
// NewGilbertElliott accepts whenever PGoodToBad > 0. Its bursts never end,
// so the mean burst length is +Inf, and the name says so instead of 0.
func TestGilbertElliottNeverLeavingBad(t *testing.T) {
	for _, tt := range []struct {
		pGoodToBad, pBadToGood float64
		burst                  float64
		name                   string
	}{
		{0.1, 0.5, 2, "gilbert(pi_bad=0.167, burst=2)"},
		{0.1, 1, 1, "gilbert(pi_bad=0.0909, burst=1)"},
		{0.1, 0, math.Inf(1), "gilbert(pi_bad=1, burst=+Inf)"},
		{1, 0, math.Inf(1), "gilbert(pi_bad=1, burst=+Inf)"},
	} {
		g, err := NewGilbertElliott(tt.pGoodToBad, tt.pBadToGood, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.meanBurstLength(); got != tt.burst {
			t.Errorf("toBad=%v toGood=%v: mean burst %v, want %v", tt.pGoodToBad, tt.pBadToGood, got, tt.burst)
		}
		if got := g.Name(); got != tt.name {
			t.Errorf("toBad=%v toGood=%v: Name() = %q, want %q", tt.pGoodToBad, tt.pBadToGood, got, tt.name)
		}
	}
}
