package serve

import (
	"io"
	"testing"
	"time"

	"mcauth/internal/catalog"
	"mcauth/internal/crypto"
	"mcauth/internal/obs"
	"mcauth/internal/scheme"
)

// TestMixedDemoLeavesNoStreamDark: in mcserved's default rotation every
// stream's verifier, whatever its scheme, counts into verifier.authenticated
// and records authenticate spans under its own stream ID. authtree and
// signeach — half the rotation — used to do neither.
func TestMixedDemoLeavesNoStreamDark(t *testing.T) {
	rotation := []string{"emss", "rohatgi", "authtree", "signeach"}
	c := Config{
		Streams: len(rotation), Key: "test-mixed", Blocks: 3,
		Scheme: func(id uint64, signer crypto.Signer) (scheme.Scheme, error) {
			e, err := catalog.Build(catalog.Spec{ID: rotation[id%4], N: 8, M: 2, D: 1}, signer)
			return e.Scheme, err
		},
		Batch: 16, Flush: 30 * time.Millisecond, WriteTimeout: 10 * time.Second,
		VerifyBatch: 32,
	}
	reg := obs.NewRegistry()
	tel := testTelemetry(reg)
	if err := c.Demo(reg, tel, io.Discard); err != nil {
		t.Fatal(err)
	}
	published := reg.Counter("server.published").Value()
	if got := reg.Counter("verifier.authenticated").Value(); published == 0 || got < published {
		t.Errorf("verifier.authenticated = %d for %d published messages", got, published)
	}
	spans := make(map[uint64]int)
	for _, s := range tel.Spans().Snapshot() {
		if s.Kind == obs.SpanAuthenticate {
			spans[s.Stream]++
		}
	}
	for id := uint64(1); id <= uint64(c.Streams); id++ {
		if spans[id] == 0 {
			t.Errorf("stream %d (%s) recorded no authenticate span", id, rotation[id%4])
		}
	}
}
