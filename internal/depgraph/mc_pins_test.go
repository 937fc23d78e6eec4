package depgraph_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"testing"

	"mcauth/internal/construct"
	"mcauth/internal/depgraph"
	"mcauth/internal/loss"
	"mcauth/internal/stats"
)

var updateMCPins = flag.Bool("update-mc-pins", false, "rewrite testdata/mc_pins.json from the current Monte-Carlo output")

// mcPin is one pinned Monte-Carlo run: the tallies and the word the caller's
// generator hands out next, which fixes how far the run advanced it.
type mcPin struct {
	Graph    string `json:"graph"`
	Pattern  string `json:"pattern"`
	Trials   int    `json:"trials"`
	Received []int  `json:"received"`
	Verified []int  `json:"verified"`
	Next     uint64 `json:"next"`
}

// mcPinGraphs are the pinned topologies, n = 60 as in the `burst` experiment.
func mcPinGraphs(t *testing.T) map[string]*depgraph.Graph {
	t.Helper()
	plan, _, err := construct.Probabilistic(
		construct.Constraint{N: 60, P: 0.1, TargetQMin: 0.9, MaxOutDegree: 0}, stats.NewRNG(28))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*depgraph.Graph{
		"rohatgi":       schemeGraph(t, "rohatgi", 60, 0, 0),
		"emss_2_1":      schemeGraph(t, "emss", 60, 2, 1),
		"augchain_3_3":  schemeGraph(t, "augchain", 60, 3, 3),
		"probabilistic": plan.Graph,
	}
}

// mcPinModels are the pinned bursty channels: a Gilbert–Elliott channel
// with lossless Good and total-loss Bad as in the `burst` experiment, one
// with fractional loss in both states, and a three-state chain.
func mcPinModels(t *testing.T) (burst5, fractional loss.GilbertElliott, markov3 *loss.MarkovChain) {
	t.Helper()
	fractional, err := loss.NewGilbertElliott(0.05, 0.3, 0.02, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	markov3, err = loss.NewMarkovChain(
		[][]float64{{0.9, 0.08, 0.02}, {0.3, 0.6, 0.1}, {0.2, 0.2, 0.6}},
		[]float64{0.01, 0.3, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	return burstChannel(t, 5), fractional, markov3
}

// mcPinPatterns are the pinned samplers: lane-native Bernoulli and
// Gilbert–Elliott, and the three-state chain through depgraph.PerTrial.
func mcPinPatterns(t *testing.T) map[string]depgraph.ReceiveLanes {
	t.Helper()
	burst5, fractional, markov3 := mcPinModels(t)
	return map[string]depgraph.ReceiveLanes{
		"bernoulli_0.1":      depgraph.BernoulliPatternInto(0.1),
		"gilbert_burst5":     loss.PatternInto(burst5),
		"gilbert_fractional": loss.PatternInto(fractional),
		"markov3":            loss.PatternInto(markov3),
	}
}

// TestMonteCarloPinned holds MonteCarloAuthProbInto, its samplers and the
// generator under them to the outputs recorded in testdata/mc_pins.json: the
// same tallies per packet, the same advance of the caller's generator, at
// trial counts on both sides of a 64-trial word and a 512-trial shard,
// whatever the worker count. The markov3 rows date from before the trial
// loop went word-parallel and the coin flips integer, and PerTrial keeps
// them; the Bernoulli and Gilbert–Elliott rows were recorded when those
// samplers went lane-native.
func TestMonteCarloPinned(t *testing.T) {
	graphs, patterns := mcPinGraphs(t), mcPinPatterns(t)
	run := func(graph, pattern string, trials, workers int) mcPin {
		rng := stats.NewRNG(uint64(trials)*31 + uint64(len(graph)+len(pattern)))
		res, err := graphs[graph].MonteCarloAuthProbInto(patterns[pattern], trials, rng, depgraph.MCOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return mcPin{graph, pattern, trials, res.ReceivedCounts, res.VerifiedCounts, rng.Uint64()}
	}
	if *updateMCPins {
		var buf bytes.Buffer
		buf.WriteString("[\n")
		first := true
		for _, graph := range []string{"rohatgi", "emss_2_1", "augchain_3_3", "probabilistic"} {
			for _, pattern := range []string{"bernoulli_0.1", "gilbert_burst5", "gilbert_fractional", "markov3"} {
				for _, trials := range []int{1, 63, 64, 65, 512, 513, 1000} {
					line, err := json.Marshal(run(graph, pattern, trials, 1))
					if err != nil {
						t.Fatal(err)
					}
					if !first {
						buf.WriteString(",\n")
					}
					first = false
					buf.Write(line)
				}
			}
		}
		buf.WriteString("\n]\n")
		if err := os.WriteFile("testdata/mc_pins.json", buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile("testdata/mc_pins.json")
	if err != nil {
		t.Fatal(err)
	}
	var pins []mcPin
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatal(err)
	}
	if len(pins) != 4*4*7 {
		t.Fatalf("%d pinned runs, want %d", len(pins), 4*4*7)
	}
	for _, pin := range pins {
		if graphs[pin.Graph] == nil || patterns[pin.Pattern] == nil {
			t.Fatalf("pin names unknown graph %q or pattern %q", pin.Graph, pin.Pattern)
		}
		for _, workers := range []int{1, 3} {
			got := run(pin.Graph, pin.Pattern, pin.Trials, workers)
			if !reflect.DeepEqual(got, pin) {
				t.Errorf("%s / %s / %d trials / %d workers: run drifted from the pin\n got received %v\nwant received %v\n got verified %v\nwant verified %v\n got next %d, want %d",
					pin.Graph, pin.Pattern, pin.Trials, workers,
					got.Received, pin.Received, got.Verified, pin.Verified, got.Next, pin.Next)
			}
		}
	}
}

// TestLaneSamplersLeaveOtherLanes: a lane sampler redraws the lanes it is
// given and no bit of any other lane, natively or through PerTrial — the
// contract the `burst` experiment's redraw of root-losing lanes rests on.
func TestLaneSamplersLeaveOtherLanes(t *testing.T) {
	patterns := mcPinPatterns(t)
	patterns["per_trial"] = depgraph.PerTrial(loss.Bernoulli{P: 0.4}.SampleInto)
	rng := stats.NewRNG(0x1a7e5)
	for name, sample := range patterns {
		for round := 0; round < 200; round++ {
			recv := make([]uint64, 1+rng.Intn(70))
			for i := range recv {
				recv[i] = rng.Uint64()
			}
			before := append([]uint64(nil), recv...)
			lanes := rng.Uint64() & rng.Uint64()
			if round%10 == 0 {
				lanes = 0
			}
			sample(rng, recv, lanes)
			for i := range recv {
				if changed := (recv[i] ^ before[i]) &^ lanes; changed != 0 {
					t.Fatalf("%s: word %d of %d changed outside lanes %#x: %#x", name, i, len(recv), lanes, changed)
				}
			}
		}
	}
}

// TestLaneNativeMatchesPerTrial: the lane-native Bernoulli and
// Gilbert–Elliott samplers draw other words than SampleInto, one trial per
// lane, but the same law. On every pinned graph, each packet's estimate
// from 20 000 lane-native trials lies within 4σ of the one from 20 000
// per-trial trials (σ of the difference of two binomial estimates at their
// pooled value).
func TestLaneNativeMatchesPerTrial(t *testing.T) {
	burst5, fractional, _ := mcPinModels(t)
	const trials = 20000
	for _, m := range []loss.Model{loss.Bernoulli{P: 0.1}, burst5, fractional} {
		perTrial := depgraph.PerTrial(m.SampleInto)
		for name, g := range mcPinGraphs(t) {
			native, err := g.MonteCarloAuthProbInto(loss.PatternInto(m), trials, stats.NewRNG(1), depgraph.MCOptions{})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := g.MonteCarloAuthProbInto(perTrial, trials, stats.NewRNG(2), depgraph.MCOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= g.N(); i++ {
				r1, r2 := float64(native.ReceivedCounts[i]), float64(ref.ReceivedCounts[i])
				q := float64(native.VerifiedCounts[i]+ref.VerifiedCounts[i]) / (r1 + r2)
				sigma := math.Sqrt(q * (1 - q) * (1/r1 + 1/r2))
				if d := math.Abs(native.Q[i] - ref.Q[i]); d > 4*sigma {
					t.Errorf("%s on %s, packet %d: lane-native q %.4f, per-trial %.4f (%.1fσ)",
						m.Name(), name, i, native.Q[i], ref.Q[i], d/sigma)
				}
			}
		}
	}
}
