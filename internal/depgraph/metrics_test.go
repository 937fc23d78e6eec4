package depgraph

import (
	"math"
	"testing"
)

func TestAvgHashesPerPacketChain(t *testing.T) {
	g := chainGraph(t, 10)
	// Rohatgi: n-1 edges over n packets.
	want := 9.0 / 10.0
	if got := g.AvgHashesPerPacket(); math.Abs(got-want) > 1e-12 {
		t.Errorf("AvgHashesPerPacket = %v, want %v", got, want)
	}
}

func TestOverheadBytesPerPacket(t *testing.T) {
	g := chainGraph(t, 10)
	spec := SizeSpec{HashSize: 16, SigSize: 128}
	got, err := g.OverheadBytesPerPacket(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := (128.0 + 16.0*9) / 10 // Equation (3)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("overhead = %v, want %v", got, want)
	}
}

func TestOverheadValidation(t *testing.T) {
	g := chainGraph(t, 3)
	bad := []SizeSpec{
		{HashSize: 0, SigSize: 64},
		{HashSize: 32, SigSize: 0},
	}
	for _, spec := range bad {
		if _, err := g.OverheadBytesPerPacket(spec); err == nil {
			t.Errorf("spec %+v should be rejected", spec)
		}
	}
}

func TestMaxHashesPerPacket(t *testing.T) {
	g := emssGraph(t, 6)
	if got := g.MaxHashesPerPacket(); got != 2 {
		t.Errorf("MaxHashesPerPacket = %d, want 2", got)
	}
}

func TestBufferSizesForwardChain(t *testing.T) {
	// Rohatgi: all edges between consecutive packets in send order,
	// pointing forward: hash buffer of 1, no message buffer.
	g := chainGraph(t, 10)
	if got := g.HashBufferSize(); got != 1 {
		t.Errorf("HashBufferSize = %d, want 1", got)
	}
	if got := g.MessageBufferSize(); got != 0 {
		t.Errorf("MessageBufferSize = %d, want 0", got)
	}
}

func TestBufferSizesSignatureLast(t *testing.T) {
	// Signature-last EMSS-like layout in send order: packet i puts its
	// hash in i+1 and i+2 (so edges point backward: i+1 -> i, i+2 -> i),
	// root is P_n.
	n := 10
	g, err := New(n, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		g.MustAddEdge(i+1, i)
	}
	for i := 1; i < n-1; i++ {
		g.MustAddEdge(i+2, i)
	}
	// Edge labels are positive (from > to): messages await later packets.
	if got := g.MessageBufferSize(); got != 2 {
		t.Errorf("MessageBufferSize = %d, want 2", got)
	}
	if got := g.HashBufferSize(); got != 0 {
		t.Errorf("HashBufferSize = %d, want 0", got)
	}
}

func TestDeterministicDelaysZeroDelayChain(t *testing.T) {
	// Rohatgi has zero receiver delay: each packet verifiable on arrival.
	g := chainGraph(t, 8)
	delays, err := g.DeterministicDelays()
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 8; v++ {
		if delays[v] != 0 {
			t.Errorf("delay[%d] = %d, want 0", v, delays[v])
		}
	}
}

func TestDeterministicDelaysSignatureLast(t *testing.T) {
	// Signature-last chain: P_i verifiable only once P_n arrives, so
	// delay(P_i) = n - i, matching Equation (4).
	n := 6
	g, err := New(n, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := n; i > 1; i-- {
		g.MustAddEdge(i, i-1)
	}
	delays, err := g.DeterministicDelays()
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= n; v++ {
		if want := n - v; delays[v] != want {
			t.Errorf("delay[%d] = %d, want %d", v, delays[v], want)
		}
	}
	maxDelay, err := g.MaxDeterministicDelay()
	if err != nil {
		t.Fatal(err)
	}
	if maxDelay != n-1 {
		t.Errorf("MaxDeterministicDelay = %d, want %d", maxDelay, n-1)
	}
}

func TestDeterministicDelaysUnreachable(t *testing.T) {
	g, err := New(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.MustAddEdge(1, 2)
	delays, err := g.DeterministicDelays()
	if err != nil {
		t.Fatal(err)
	}
	if delays[3] != -1 {
		t.Errorf("unreachable vertex delay = %d, want -1", delays[3])
	}
}

func TestDeterministicDelaysPicksBestPath(t *testing.T) {
	// Root P_1; P_3 is authenticated either via a forward edge from P_2
	// (available at slot 3) or directly from P_5 (slot 5). The earlier
	// alternative must win: delay 0.
	g, err := New(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(1, 5)
	g.MustAddEdge(5, 3)
	g.MustAddEdge(1, 4)
	delays, err := g.DeterministicDelays()
	if err != nil {
		t.Fatal(err)
	}
	if delays[3] != 0 {
		t.Errorf("delay[3] = %d, want 0 (best of two paths)", delays[3])
	}
}

func TestComputeMetrics(t *testing.T) {
	g := emssGraph(t, 10)
	m, err := g.ComputeMetrics(DefaultSizes())
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 10 || m.Edges != g.NumEdges() {
		t.Errorf("metrics %+v inconsistent with graph", m)
	}
	if m.UnreachableCount != 0 {
		t.Errorf("UnreachableCount = %d, want 0", m.UnreachableCount)
	}
	if m.MaxHashesPerPkt != 2 {
		t.Errorf("MaxHashesPerPkt = %d, want 2", m.MaxHashesPerPkt)
	}
}

func TestComputeMetricsRejectsBadSpec(t *testing.T) {
	g := emssGraph(t, 4)
	if _, err := g.ComputeMetrics(SizeSpec{}); err == nil {
		t.Error("zero SizeSpec should be rejected")
	}
}

func TestPaperAndDefaultSizes(t *testing.T) {
	if s := DefaultSizes(); s.HashSize != 32 || s.SigSize != 64 {
		t.Errorf("DefaultSizes = %+v", s)
	}
	if s := paperEraSizes(); s.HashSize != 16 || s.SigSize != 128 {
		t.Errorf("PaperEraSizes = %+v", s)
	}
}
