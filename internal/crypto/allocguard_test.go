package crypto

import "testing"

// The serving fast path leans on the ...Into/scratch APIs staying
// allocation-free at steady state. These guards pin that property so a
// refactor that quietly reintroduces per-call garbage fails CI rather
// than showing up as a latency regression weeks later.
//
// The race detector instruments allocations and makes AllocsPerRun
// meaningless, so every guard skips under -race.

func requireAllocFree(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
}

func TestMACScratchAllocFree(t *testing.T) {
	requireAllocFree(t)
	var s MACScratch
	key := []byte("alloc-guard-key")
	data := make([]byte, 1200)
	mac := s.Sum(key, data)
	// First Sum may grow the internal buffer; steady state must not.
	if n := testing.AllocsPerRun(100, func() {
		if !s.Verify(key, data, mac[:]) {
			t.Fatal("verify failed")
		}
	}); n > 0 {
		t.Errorf("MACScratch.Verify: %.1f allocs/op, want 0", n)
	}
}

func TestHashScratchAllocFree(t *testing.T) {
	requireAllocFree(t)
	var s HashScratch
	part := make([]byte, 512)
	s.Write(part)
	s.Sum()
	if n := testing.AllocsPerRun(100, func() {
		s.Write(part)
		s.Write(part)
		s.Sum()
	}); n > 0 {
		t.Errorf("HashScratch: %.1f allocs/op, want 0", n)
	}
}

func TestKeychainIntoAllocFree(t *testing.T) {
	requireAllocFree(t)
	keys, err := keyChain([]byte("alloc-guard-seed"), 64)
	if err != nil {
		t.Fatal(err)
	}
	k64 := keys[64]
	var s MACScratch
	out := make([]byte, KeySize)
	if n := testing.AllocsPerRun(100, func() {
		if err := RecoverEarlierKeyInto(&s, out, k64, 64, 1); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("RecoverEarlierKeyInto: %.1f allocs/op, want 0", n)
	}
	mk := make([]byte, MACSize)
	if n := testing.AllocsPerRun(100, func() {
		DeriveMACKeyInto(&s, mk, out)
	}); n > 0 {
		t.Errorf("DeriveMACKeyInto: %.1f allocs/op, want 0", n)
	}
}

// TestSigCacheSteadyStateAllocs bounds the signature-cache hit path: a
// repeat verification of an already-cached signature must not allocate.
func TestSigCacheSteadyStateAllocs(t *testing.T) {
	requireAllocFree(t)
	signer, err := NewSigner([]byte("alloc-guard-signature-seed-32by!"))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("steady-state message")
	sig := signer.Sign(msg)
	pub := signer.Public()
	c, err := NewSigCache(64)
	if err != nil {
		t.Fatal(err)
	}
	var vs VerifyScratch
	if !VerifyCached(c, &vs, pub, msg, nil, sig) {
		t.Fatal("first verify failed")
	}
	if n := testing.AllocsPerRun(100, func() {
		if !VerifyCached(c, &vs, pub, msg, nil, sig) {
			t.Fatal("cached verify failed")
		}
	}); n > 0 {
		t.Errorf("VerifyCached hit: %.1f allocs/op, want 0", n)
	}
}
