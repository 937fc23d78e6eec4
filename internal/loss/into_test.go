package loss

import (
	"reflect"
	"testing"

	"mcauth/internal/stats"
)

// sampled draws one pattern for a block of n packets into a fresh slice.
func sampled(m Model, rng *stats.RNG, n int) []bool {
	recv := make([]bool, n+1)
	m.SampleInto(rng, recv)
	return recv
}

// testModels builds one instance of every Model for contract tests.
func testModels(t *testing.T) []Model {
	t.Helper()
	ge, err := NewGilbertElliott(0.05, 0.3, 0.01, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTrace([]bool{true, false, false, true})
	if err != nil {
		t.Fatal(err)
	}
	return []Model{Bernoulli{P: 0.3}, ge, SingleBurst{Length: 5}, tr}
}

// TestSampleIntoZeroLength: degenerate destinations (nil, empty, or the
// length-1 slice whose only cell is the unused index 0) must be no-ops,
// never panics. SingleBurst used to reach Intn(-1) on an empty slice.
func TestSampleIntoZeroLength(t *testing.T) {
	for _, m := range testModels(t) {
		for _, recv := range [][]bool{nil, {}, make([]bool, 1)} {
			m.SampleInto(stats.NewRNG(1), recv) // must not panic
		}
	}
}

// TestSampleIntoIndexZeroUntouched pins the 1-based contract: position 0
// belongs to the caller and is never written.
func TestSampleIntoIndexZeroUntouched(t *testing.T) {
	for _, m := range testModels(t) {
		recv := make([]bool, 9)
		recv[0] = true // sentinel
		m.SampleInto(stats.NewRNG(5), recv)
		if !recv[0] {
			t.Errorf("%s: SampleInto wrote index 0", m.Name())
		}
	}
}

// TestSampleIntoReuseOverwrites reuses one scratch slice across calls, as
// the Monte-Carlo hot loop does: every position 1..n must be rewritten,
// with no state leaking from the previous pattern.
func TestSampleIntoReuseOverwrites(t *testing.T) {
	for _, m := range testModels(t) {
		scratch := make([]bool, 33)
		// Poison with the complement of the expected pattern so any
		// stale cell is guaranteed to differ.
		want := sampled(m, stats.NewRNG(77), 32)
		for i := 1; i < len(scratch); i++ {
			scratch[i] = !want[i]
		}
		m.SampleInto(stats.NewRNG(77), scratch)
		if !reflect.DeepEqual(scratch[1:], want[1:]) {
			t.Errorf("%s: reused scratch differs from fresh sample", m.Name())
		}
	}
}

// TestSampleIntoShrinkingReuse runs the same model over progressively
// shorter prefixes of one backing array — the aliasing shape netsim's
// per-receiver buffers produce — and checks the tail beyond each length
// is left alone.
func TestSampleIntoShrinkingReuse(t *testing.T) {
	for _, m := range testModels(t) {
		backing := make([]bool, 17)
		for i := range backing {
			backing[i] = true
		}
		m.SampleInto(stats.NewRNG(3), backing[:9])
		tail := append([]bool(nil), backing[9:]...)
		m.SampleInto(stats.NewRNG(4), backing[:5])
		if !reflect.DeepEqual(backing[9:], tail) {
			t.Errorf("%s: write past the slice length", m.Name())
		}
	}
}
