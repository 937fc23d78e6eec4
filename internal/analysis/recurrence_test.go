package analysis

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestPeriodicSingleOffsetEqualsRohatgi(t *testing.T) {
	// A = {1} is exactly the Rohatgi chain; the recurrence must
	// reproduce the closed form (modulo the boundary q_2 = 1, which
	// reflects the signature packet carrying P_2's hash directly).
	n, p := 12, 0.3
	res, err := Periodic{N: n, Offsets: []int{1}, P: p}.Q()
	if err != nil {
		t.Fatal(err)
	}
	for i := 3; i <= n; i++ {
		want := math.Pow(1-p, float64(i-2))
		if math.Abs(res.Q[i]-want) > 1e-12 {
			t.Errorf("Q[%d] = %v, want %v", i, res.Q[i], want)
		}
	}
}

func TestPeriodicE21InitialConditions(t *testing.T) {
	res, err := Periodic{N: 10, Offsets: []int{1, 2}, P: 0.4}.Q()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: q_1 = q_2 = q_3 = 1 for E_{2,1}.
	for i := 1; i <= 3; i++ {
		if res.Q[i] != 1 {
			t.Errorf("Q[%d] = %v, want 1", i, res.Q[i])
		}
	}
	// q_4 = 1 - [1-(1-p)q_3][1-(1-p)q_2] = 1 - p^2.
	want := 1 - 0.4*0.4
	if math.Abs(res.Q[4]-want) > 1e-12 {
		t.Errorf("Q[4] = %v, want %v", res.Q[4], want)
	}
}

func TestPeriodicNoLoss(t *testing.T) {
	res, err := Periodic{N: 100, Offsets: []int{1, 5}, P: 0}.Q()
	if err != nil {
		t.Fatal(err)
	}
	if res.QMin != 1 {
		t.Errorf("QMin with p=0 = %v, want 1", res.QMin)
	}
}

func TestPeriodicTotalLoss(t *testing.T) {
	res, err := Periodic{N: 10, Offsets: []int{1, 2}, P: 1}.Q()
	if err != nil {
		t.Fatal(err)
	}
	// Beyond the boundary, nothing survives to carry hashes.
	if res.Q[5] != 0 {
		t.Errorf("Q[5] with p=1 = %v, want 0", res.Q[5])
	}
}

func TestPeriodicValidation(t *testing.T) {
	cases := []Periodic{
		{N: 10, Offsets: nil, P: 0.1},
		{N: 10, Offsets: []int{0}, P: 0.1},
		{N: 10, Offsets: []int{10}, P: 0.1},
		{N: 10, Offsets: []int{-10}, P: 0.1},
		{N: 10, Offsets: []int{1, 1}, P: 0.1},
		{N: 10, Offsets: []int{1}, P: 2},
		{N: 0, Offsets: []int{1}, P: 0.1},
	}
	for _, c := range cases {
		if _, err := c.Q(); err == nil {
			t.Errorf("config %+v should fail validation", c)
		}
	}
}

func TestPeriodicMonotoneInP(t *testing.T) {
	prev := 1.0
	for _, p := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		res, err := Periodic{N: 200, Offsets: []int{1, 2}, P: p}.Q()
		if err != nil {
			t.Fatal(err)
		}
		qmin := res.QMin
		if qmin > prev+1e-12 {
			t.Errorf("QMin increased when p rose to %v: %v > %v", p, qmin, prev)
		}
		prev = qmin
	}
}

func TestPeriodicQDecreasesFromSignature(t *testing.T) {
	res, err := Periodic{N: 100, Offsets: []int{1, 2}, P: 0.3}.Q()
	if err != nil {
		t.Fatal(err)
	}
	for i := 4; i <= 100; i++ {
		if res.Q[i] > res.Q[i-1]+1e-12 {
			t.Errorf("Q[%d]=%v > Q[%d]=%v: q must not increase away from the signature", i, res.Q[i], i-1, res.Q[i-1])
		}
	}
}

// requireBackwardOffsetRejected checks that c, which carries an offset < 1,
// fails validation with the stated error and that Q returns no vector.
func requireBackwardOffsetRejected(t *testing.T, c Periodic) {
	t.Helper()
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "< 1") {
		t.Errorf("Validate(%+v) = %v, want the offset < 1 error", c, err)
	}
	res, err := c.Q()
	if err == nil {
		t.Errorf("Q(%+v) accepted a backward offset", c)
	}
	if res.Q != nil {
		t.Errorf("Q(%+v) returned a vector alongside its error", c)
	}
}

func TestPeriodicNegativeOffsetAddsRobustness(t *testing.T) {
	// A backward dependence (a packet also storing its hash in a packet
	// farther from the signature) closes a cycle with the forward offsets:
	// no hash chain builds it, so it adds no robustness and is rejected,
	// while the forward-only topology it extended still evaluates.
	if _, err := (Periodic{N: 50, Offsets: []int{1, 2}, P: 0.3}).Q(); err != nil {
		t.Fatal(err)
	}
	requireBackwardOffsetRejected(t, Periodic{N: 50, Offsets: []int{1, 2, -3}, P: 0.3})
}

func TestPeriodicNegativeOffsetsConverge(t *testing.T) {
	// {1, -1} makes every adjacent pair mutually dependent. Q is a single
	// forward pass with no fixed-point iteration, so it must refuse the
	// system outright rather than return a partial solution.
	requireBackwardOffsetRejected(t, Periodic{N: 300, Offsets: []int{1, -1}, P: 0.2})
}

// Property: q_i always stays within [0,1] for arbitrary valid offset sets.
func TestPeriodicRangeProperty(t *testing.T) {
	f := func(seed uint8, pRaw uint8) bool {
		p := float64(pRaw) / 255
		offsets := []int{1, int(seed%5) + 2}
		res, err := Periodic{N: 80, Offsets: offsets, P: p}.Q()
		if err != nil {
			return false
		}
		for i := 1; i <= 80; i++ {
			if res.Q[i] < 0 || res.Q[i] > 1 || math.IsNaN(res.Q[i]) {
				return false
			}
		}
		return res.QMin >= 0 && res.QMin <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
