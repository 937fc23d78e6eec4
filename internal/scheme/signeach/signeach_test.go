package signeach

import (
	"crypto/ed25519"
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/scheme"
	"mcauth/internal/schemetest"
	"mcauth/internal/verifier"
)

func TestConformance(t *testing.T) {
	s, err := New(6, crypto.NewSignerFromString("sender"))
	if err != nil {
		t.Fatal(err)
	}
	schemetest.Conformance(t, s, schemetest.FixedClock)
}

// TestEnvConformance: every packet carries its own signature, so nothing
// buffers outside deferred mode and nothing is traced.
func TestEnvConformance(t *testing.T) {
	schemetest.EnvConformance(t, func(signer crypto.Signer) (scheme.Scheme, error) { return New(24, signer) },
		schemetest.FixedClock, schemetest.Honours{Cache: true, BatchQ: true})
}

func TestValidation(t *testing.T) {
	if _, err := New(0, crypto.NewSignerFromString("s")); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := New(4, nil); err == nil {
		t.Error("nil signer should fail")
	}
}

func TestEveryPacketSigned(t *testing.T) {
	s, err := New(5, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := s.Authenticate(1, schemetest.Payloads(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if len(p.Signature) != ed25519.SignatureSize {
			t.Errorf("packet %d signature size %d", p.Index, len(p.Signature))
		}
		if len(p.Hashes) != 0 {
			t.Errorf("packet %d carries hashes", p.Index)
		}
	}
}

func TestIndependentVerification(t *testing.T) {
	s, err := New(5, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := s.Authenticate(1, schemetest.Payloads(5))
	if err != nil {
		t.Fatal(err)
	}
	// Deliver only the last packet: it must verify alone.
	v, err := s.NewVerifier(verifier.Env{})
	if err != nil {
		t.Fatal(err)
	}
	evs, err := v.Ingest(pkts[4], time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 {
		t.Errorf("events = %v, want exactly the ingested packet", evs)
	}
}

func TestWrongKeyRejected(t *testing.T) {
	s, err := New(3, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := New(3, crypto.NewSignerFromString("attacker"))
	if err != nil {
		t.Fatal(err)
	}
	evil, err := attacker.Authenticate(1, schemetest.Payloads(3))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.NewVerifier(verifier.Env{})
	if err != nil {
		t.Fatal(err)
	}
	evs, err := v.Ingest(evil[0], time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 0 || v.Stats().Rejected != 1 {
		t.Error("packet signed by the wrong key accepted")
	}
}

func TestErrorsAndDuplicates(t *testing.T) {
	s, err := New(3, crypto.NewSignerFromString("s"))
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := s.Authenticate(1, schemetest.Payloads(3))
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.NewVerifier(verifier.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Ingest(nil, time.Time{}); err == nil {
		t.Error("nil packet should error")
	}
	bad := *pkts[0]
	bad.Index = 9
	if _, err := v.Ingest(&bad, time.Time{}); err == nil {
		t.Error("out-of-range index should error")
	}
	for i := 0; i < 2; i++ {
		if _, err := v.Ingest(pkts[1], time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	if v.Stats().Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1", v.Stats().Duplicates)
	}
	if _, err := s.Authenticate(1, schemetest.Payloads(2)); err == nil {
		t.Error("wrong payload count should fail")
	}
}

func TestCorruptionSweep(t *testing.T) {
	s, err := New(6, crypto.NewSignerFromString("sender"))
	if err != nil {
		t.Fatal(err)
	}
	schemetest.CorruptionSweep(t, s, schemetest.SweepParams{})
}
