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
	// HashConcat must equal hashing the raw concatenation; two different
	// splits of the same bytes agree (we bind structure at the packet
	// encoding layer, not here).
	a := HashConcat([]byte("ab"), []byte("c"))
	b := HashConcat([]byte("a"), []byte("bc"))
	if a != b {
		t.Error("HashConcat must hash the concatenation")
	}
	if a != HashBytes([]byte("abc")) {
		t.Error("HashConcat disagrees with HashBytes")
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
	kc, err := NewKeyChain([]byte("seed"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if kc.size() != 10 {
		t.Fatalf("Len = %d, want 10", kc.size())
	}
	commit := kc.Commitment()
	for i := 1; i <= 10; i++ {
		k, err := kc.Key(i)
		if err != nil {
			t.Fatal(err)
		}
		if !verifyAgainstCommitment(commit, k, i) {
			t.Errorf("key %d failed commitment verification", i)
		}
	}
}

func TestKeyChainErrors(t *testing.T) {
	if _, err := NewKeyChain([]byte("seed"), 0); err == nil {
		t.Error("zero length should fail")
	}
	if _, err := NewKeyChain(nil, 5); err == nil {
		t.Error("empty seed should fail")
	}
	kc, err := NewKeyChain([]byte("seed"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kc.Key(0); err == nil {
		t.Error("Key(0) should fail (commitment is not a usable key)")
	}
	if _, err := kc.Key(6); err == nil {
		t.Error("Key beyond chain should fail")
	}
}

func TestKeyChainRecovery(t *testing.T) {
	kc, err := NewKeyChain([]byte("seed"), 20)
	if err != nil {
		t.Fatal(err)
	}
	k15, err := kc.Key(15)
	if err != nil {
		t.Fatal(err)
	}
	// A lost K_7 is recoverable from K_15.
	k7, err := recoverEarlierKey(k15, 15, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, err := kc.Key(7)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k7, want) {
		t.Error("recovered key differs from chain key")
	}
	if _, err := recoverEarlierKey(k15, 15, 15); err == nil {
		t.Error("recovering same index should fail")
	}
	if _, err := recoverEarlierKey(k15, 15, -1); err == nil {
		t.Error("negative target should fail")
	}
}

func TestKeyChainForgeryRejected(t *testing.T) {
	kc, err := NewKeyChain([]byte("seed"), 5)
	if err != nil {
		t.Fatal(err)
	}
	commit := kc.Commitment()
	fake := make([]byte, KeySize)
	if verifyAgainstCommitment(commit, fake, 3) {
		t.Error("arbitrary bytes verified against commitment")
	}
	k3, err := kc.Key(3)
	if err != nil {
		t.Fatal(err)
	}
	// A genuine key claimed at the wrong index must fail.
	if verifyAgainstCommitment(commit, k3, 2) {
		t.Error("key accepted at wrong index")
	}
	if verifyAgainstCommitment(commit, k3, 0) {
		t.Error("index 0 must never verify")
	}
}

func TestDeriveMACKeyDomainSeparation(t *testing.T) {
	kc, err := NewKeyChain([]byte("seed"), 3)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := kc.Key(1)
	if err != nil {
		t.Fatal(err)
	}
	mk := DeriveMACKey(k1)
	if bytes.Equal(mk, k1) {
		t.Error("MAC key must differ from chain key")
	}
	if bytes.Equal(mk, prfStep(k1)) {
		t.Error("MAC key must differ from next chain element")
	}
}

func TestKeyChainDeterministic(t *testing.T) {
	a, err := NewKeyChain([]byte("s"), 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewKeyChain([]byte("s"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Commitment(), b.Commitment()) {
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
		kc, err := NewKeyChain(seed, length)
		if err != nil {
			return false
		}
		last, err := kc.Key(length)
		if err != nil {
			return false
		}
		first, err := recoverEarlierKey(last, length, 1)
		if err != nil {
			return false
		}
		want, err := kc.Key(1)
		if err != nil {
			return false
		}
		return bytes.Equal(first, want) &&
			verifyAgainstCommitment(kc.Commitment(), last, length)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestIntervalKeyID(t *testing.T) {
	a := intervalKeyID(7)
	b := intervalKeyID(8)
	if bytes.Equal(a, b) {
		t.Error("distinct indices must encode distinctly")
	}
	if len(a) != 8 {
		t.Errorf("encoded ID length %d, want 8", len(a))
	}
}

func TestInstrumentationCountsOps(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Uninstrument()

	HashBytes([]byte("data"))
	HashConcat([]byte("a"), []byte("b"))
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
