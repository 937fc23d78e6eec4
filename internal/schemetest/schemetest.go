// Package schemetest provides conformance checks shared by the tests of
// every runnable scheme: wire-format sanity, full in-order authentication,
// graph well-formedness, and a tampering sweep asserting that no forged
// payload is ever emitted as authentic.
package schemetest

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mcauth/internal/packet"
	"mcauth/internal/scheme"
	"mcauth/internal/verifier"
)

// Clock maps a wire index (1-based) to that packet's receiver arrival time.
type Clock func(wireIndex int) time.Time

// FixedClock is a Clock for schemes that ignore time.
func FixedClock(int) time.Time { return time.Unix(0, 0) }

// Payloads generates deterministic distinct payloads for a block.
func Payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("payload-%04d", i))
	}
	return out
}

// DeliverAll authenticates a block and feeds every wire packet, in order,
// to a fresh verifier. It returns all authentication events.
func DeliverAll(t *testing.T, s scheme.Scheme, blockID uint64, payloads [][]byte, clock Clock) []verifier.Event {
	t.Helper()
	pkts, err := s.Authenticate(blockID, payloads)
	if err != nil {
		t.Fatalf("Authenticate: %v", err)
	}
	v, err := s.NewVerifier(verifier.Env{})
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	var events []verifier.Event
	for w, p := range pkts {
		evs, err := v.Ingest(p, clock(w+1))
		if err != nil {
			t.Fatalf("Ingest wire %d: %v", w+1, err)
		}
		events = append(events, evs...)
	}
	return events
}

// Conformance runs the shared checks against a scheme.
func Conformance(t *testing.T, s scheme.Scheme, clock Clock) {
	t.Helper()
	n := s.BlockSize()
	payloads := Payloads(n)

	t.Run("wire", func(t *testing.T) {
		pkts, err := s.Authenticate(1, payloads)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkts) != s.WireCount() {
			t.Fatalf("got %d wire packets, want %d", len(pkts), s.WireCount())
		}
		seen := make(map[uint32]bool, len(pkts))
		for _, p := range pkts {
			if seen[p.Index] {
				t.Fatalf("duplicate wire index %d", p.Index)
			}
			seen[p.Index] = true
			wire, err := p.Encode()
			if err != nil {
				t.Fatalf("Encode index %d: %v", p.Index, err)
			}
			back, err := packet.Decode(wire)
			if err != nil {
				t.Fatalf("Decode index %d: %v", p.Index, err)
			}
			if back.Digest() != p.Digest() {
				t.Fatalf("round trip changed digest of index %d", p.Index)
			}
		}
	})

	t.Run("authenticate_all", func(t *testing.T) {
		events := DeliverAll(t, s, 2, payloads, clock)
		got := make(map[string]bool, len(events))
		for _, e := range events {
			got[string(e.Payload)] = true
		}
		for i, payload := range payloads {
			if !got[string(payload)] {
				t.Errorf("payload %d never authenticated", i)
			}
		}
	})

	t.Run("graph", func(t *testing.T) {
		g, err := s.Graph()
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("graph invalid: %v", err)
		}
	})

	t.Run("tamper_sweep", func(t *testing.T) {
		pkts, err := s.Authenticate(3, payloads)
		if err != nil {
			t.Fatal(err)
		}
		for tampered := range pkts {
			if len(pkts[tampered].Payload) == 0 {
				continue
			}
			v, err := s.NewVerifier(verifier.Env{})
			if err != nil {
				t.Fatal(err)
			}
			evil := *pkts[tampered]
			evil.Payload = append([]byte(nil), evil.Payload...)
			evil.Payload[0] ^= 0xff
			for w, p := range pkts {
				deliver := p
				if w == tampered {
					deliver = &evil
				}
				evs, err := v.Ingest(deliver, clock(w+1))
				if err != nil {
					t.Fatalf("tamper %d ingest %d: %v", tampered, w+1, err)
				}
				for _, e := range evs {
					if bytes.Equal(e.Payload, evil.Payload) {
						t.Fatalf("forged payload of wire %d authenticated", tampered)
					}
				}
			}
		}
	})
}
