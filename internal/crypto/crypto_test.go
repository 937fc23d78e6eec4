package crypto

import (
	"bytes"
	"testing"
	"testing/quick"

	"mcauth/internal/obs"
)

func TestHashBytesDeterministic(t *testing.T) {
	a := HashBytes([]byte("hello"))
	b := HashBytes([]byte("hello"))
	if a != b {
		t.Error("same input must hash identically")
	}
	c := HashBytes([]byte("hellp"))
	if a == c {
		t.Error("different inputs collided")
	}
}

func TestHashConcatBoundary(t *testing.T) {
	// A HashScratch must hash the raw concatenation of its writes; two
	// different splits of the same bytes agree (we bind structure at the
	// packet encoding layer, not here).
	var s HashScratch
	s.Write([]byte("ab"))
	s.Write([]byte("c"))
	a := s.Sum()
	s.Write([]byte("a"))
	s.Write([]byte("bc"))
	if b := s.Sum(); a != b {
		t.Error("HashScratch must hash the concatenation")
	}
	if a != HashBytes([]byte("abc")) {
		t.Error("HashScratch disagrees with HashBytes")
	}
}

func TestMACRoundTrip(t *testing.T) {
	key := []byte("0123456789abcdef")
	msg := []byte("stream packet 42")
	mac := MAC(key, msg)
	if !verifyMAC(key, msg, mac) {
		t.Error("valid MAC rejected")
	}
	if verifyMAC(key, []byte("stream packet 43"), mac) {
		t.Error("MAC accepted for different message")
	}
	if verifyMAC([]byte("0123456789abcdeg"), msg, mac) {
		t.Error("MAC accepted under different key")
	}
	mac[0] ^= 1
	if verifyMAC(key, msg, mac) {
		t.Error("tampered MAC accepted")
	}
}

func TestSignerRoundTrip(t *testing.T) {
	s := NewSignerFromString("sender")
	msg := []byte("block signature")
	sig := s.Sign(msg)
	if len(sig) != signatureSize {
		t.Fatalf("signature size %d, want %d", len(sig), signatureSize)
	}
	v := s.Public()
	if !v.Verify(msg, sig) {
		t.Error("valid signature rejected")
	}
	if v.Verify([]byte("other"), sig) {
		t.Error("signature accepted for different message")
	}
	sig[3] ^= 0xff
	if v.Verify(msg, sig) {
		t.Error("tampered signature accepted")
	}
}

func TestSignerRejectsBadSeed(t *testing.T) {
	if _, err := NewSigner([]byte("short")); err == nil {
		t.Error("short seed should be rejected")
	}
}

func TestVerifierSerializeRoundTrip(t *testing.T) {
	s := NewSignerFromString("sender")
	msg := []byte("hello")
	sig := s.Sign(msg)
	parsed, err := parseVerifier(s.Public().Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Verify(msg, sig) {
		t.Error("parsed verifier rejected valid signature")
	}
	if _, err := parseVerifier([]byte{1, 2, 3}); err == nil {
		t.Error("malformed public key should be rejected")
	}
}

func TestVerifierRejectsWrongLengthSig(t *testing.T) {
	s := NewSignerFromString("sender")
	if s.Public().Verify([]byte("m"), []byte("too short")) {
		t.Error("short signature accepted")
	}
}

func TestDifferentSignersDistinct(t *testing.T) {
	a := NewSignerFromString("a")
	b := NewSignerFromString("b")
	msg := []byte("m")
	if b.Public().Verify(msg, a.Sign(msg)) {
		t.Error("signature verified under the wrong public key")
	}
}

func TestKeyChainConstruction(t *testing.T) {
	keys, err := keyChain([]byte("seed"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 11 {
		t.Fatalf("%d chain elements, want 11", len(keys))
	}
	for i := 1; i <= 10; i++ {
		if !verifyAgainstCommitment(keys[0], keys[i], i) {
			t.Errorf("key %d failed commitment verification", i)
		}
	}
	// The scratch derivation draws the same chain from the same seed,
	// reading the seed as the element past the chain's end.
	var s MACScratch
	got := make([]byte, KeySize)
	for i := 0; i <= 10; i++ {
		if err := RecoverEarlierKeyInto(&s, got, []byte("seed"), 11, i); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, keys[i]) {
			t.Errorf("RecoverEarlierKeyInto(seed, 11 -> %d) diverges from the chain", i)
		}
	}
}

func TestKeyChainErrors(t *testing.T) {
	var s MACScratch
	out := make([]byte, KeySize)
	key := make([]byte, KeySize)
	if err := RecoverEarlierKeyInto(&s, out, key, 5, 5); err == nil {
		t.Error("recovering the same index should fail")
	}
	if err := RecoverEarlierKeyInto(&s, out, key, 5, 6); err == nil {
		t.Error("recovering a later key should fail")
	}
	if err := RecoverEarlierKeyInto(&s, out, key, 5, -1); err == nil {
		t.Error("negative target should fail")
	}
}

func TestKeyChainRecovery(t *testing.T) {
	keys, err := keyChain([]byte("seed"), 20)
	if err != nil {
		t.Fatal(err)
	}
	// A lost K_7 is recoverable from K_15.
	k7, err := recoverEarlierKey(keys[15], 15, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k7, keys[7]) {
		t.Error("recovered key differs from chain key")
	}
	if _, err := recoverEarlierKey(keys[15], 15, 15); err == nil {
		t.Error("recovering same index should fail")
	}
	if _, err := recoverEarlierKey(keys[15], 15, -1); err == nil {
		t.Error("negative target should fail")
	}
}

func TestKeyChainForgeryRejected(t *testing.T) {
	keys, err := keyChain([]byte("seed"), 5)
	if err != nil {
		t.Fatal(err)
	}
	commit := keys[0]
	fake := make([]byte, KeySize)
	if verifyAgainstCommitment(commit, fake, 3) {
		t.Error("arbitrary bytes verified against commitment")
	}
	// A genuine key claimed at the wrong index must fail.
	if verifyAgainstCommitment(commit, keys[3], 2) {
		t.Error("key accepted at wrong index")
	}
	if verifyAgainstCommitment(commit, keys[3], 0) {
		t.Error("index 0 must never verify")
	}
}

func TestDeriveMACKeyDomainSeparation(t *testing.T) {
	keys, err := keyChain([]byte("seed"), 3)
	if err != nil {
		t.Fatal(err)
	}
	var s MACScratch
	mk := make([]byte, KeySize)
	DeriveMACKeyInto(&s, mk, keys[1])
	if bytes.Equal(mk, keys[1]) {
		t.Error("MAC key must differ from chain key")
	}
	if bytes.Equal(mk, prfStep(keys[1])) {
		t.Error("MAC key must differ from next chain element")
	}
}

func TestKeyChainDeterministic(t *testing.T) {
	var s MACScratch
	a, b := make([]byte, KeySize), make([]byte, KeySize)
	if err := RecoverEarlierKeyInto(&s, a, []byte("s"), 9, 0); err != nil {
		t.Fatal(err)
	}
	if err := RecoverEarlierKeyInto(&s, b, []byte("s"), 9, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("same seed must give same chain")
	}
}

// Property: for random seeds and indices, every chain key verifies against
// the commitment and recovery is consistent.
func TestKeyChainProperty(t *testing.T) {
	f := func(seed []byte, ln uint8) bool {
		if len(seed) == 0 {
			seed = []byte{0}
		}
		length := int(ln%30) + 2
		keys, err := keyChain(seed, length)
		if err != nil {
			return false
		}
		last := keys[length]
		first, err := recoverEarlierKey(last, length, 1)
		if err != nil {
			return false
		}
		return bytes.Equal(first, keys[1]) &&
			verifyAgainstCommitment(keys[0], last, length)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInstrumentationCountsOps(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Uninstrument()

	HashBytes([]byte("data"))
	var hs HashScratch
	hs.Write([]byte("ab"))
	hs.Sum()
	mac := MAC([]byte("key"), []byte("data"))
	verifyMAC([]byte("key"), []byte("data"), mac)
	signer := NewSignerFromString("instr")
	sig := signer.Sign([]byte("msg"))
	signer.Public().Verify([]byte("msg"), sig)

	snap := reg.Snapshot()
	if got := snap.Counters["crypto.hash_ops"]; got != 2 {
		t.Errorf("hash_ops = %d, want 2", got)
	}
	// verifyMAC recomputes the MAC, so two MAC ops total.
	if got := snap.Counters["crypto.mac_ops"]; got != 2 {
		t.Errorf("mac_ops = %d, want 2", got)
	}
	if got := snap.Counters["crypto.sign_ops"]; got != 1 {
		t.Errorf("sign_ops = %d, want 1", got)
	}
	if got := snap.Counters["crypto.verify_ops"]; got != 1 {
		t.Errorf("verify_ops = %d, want 1", got)
	}
	if snap.Counters["crypto.sign_ns"] <= 0 {
		t.Error("sign wall time not recorded")
	}

	Uninstrument()
	HashBytes([]byte("more"))
	if got := reg.Snapshot().Counters["crypto.hash_ops"]; got != 2 {
		t.Errorf("hash_ops after Uninstrument = %d, want 2", got)
	}
}
