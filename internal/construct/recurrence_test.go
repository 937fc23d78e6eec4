package construct

import (
	"testing"

	"mcauth/internal/scheme/augchain"
)

// TestRecurrenceSegmentZeroGap pins the recurrence's answer on a block small
// enough for segment 0 to hold its minimum: C_{1,3} at n = 5 is the
// signature packet, its three inserted packets and one chain packet. The
// inserted packets hang off the signature packet, which the recurrence, like
// every evaluator here, takes as received, so they have q = 1; so does the
// chain packet, covered by the signature directly.
func TestRecurrenceSegmentZeroGap(t *testing.T) {
	g, err := augchain.Config{N: 5, A: 1, B: 3}.Graph()
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Recurrence(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if res.QMin != 1 {
		t.Errorf("C_{1,3} n=5: q_min %v, want 1", res.QMin)
	}
}
