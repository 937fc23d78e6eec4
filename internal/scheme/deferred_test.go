package scheme_test

import (
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/packet"
	"mcauth/internal/scheme"
	"mcauth/internal/schemetest"
	"mcauth/internal/verifier"
)

// verifyAll ingests every packet into a fresh verifier and returns how
// many distinct packets authenticated.
func verifyAll(t *testing.T, s scheme.Scheme, pkts []*packet.Packet) int {
	t.Helper()
	v, err := s.NewVerifier(verifier.Env{})
	if err != nil {
		t.Fatal(err)
	}
	verified := map[uint32]bool{}
	for _, p := range pkts {
		events, err := v.Ingest(p, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			verified[e.Index] = true
		}
	}
	return len(verified)
}

func TestAuthenticateDeferredMatchesSynchronous(t *testing.T) {
	signer := crypto.NewSignerFromString("deferred")
	s := diamondSignedBy(t, signer)
	payloads := schemetest.Payloads(4)

	pkts, root, err := s.AuthenticateDeferred(7, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != s.WireCount() {
		t.Fatalf("wire count %d, want %d", len(pkts), s.WireCount())
	}
	// The root, at position 0, is the one held packet.
	if len(root.HeldWire) != 1 || root.HeldWire[0] != 0 {
		t.Fatalf("held wire %v, want [0]", root.HeldWire)
	}
	if len(pkts[0].Signature) != 0 {
		t.Fatal("held root already signed")
	}
	// The content handed to the signing layer is the root's own bytes.
	if string(root.Content) != string(pkts[root.HeldWire[0]].ContentBytes()) {
		t.Fatal("pending content is not the root packet's content bytes")
	}
	root.Attach(signer.Sign(root.Content))
	if len(pkts[0].Signature) == 0 {
		t.Fatal("held root unsigned after Attach")
	}
	// Everything verifies exactly as the synchronous path would.
	if n := verifyAll(t, s, pkts); n != 4 {
		t.Fatalf("verified %d of 4 packets", n)
	}
}

func TestAuthenticateDeferredWithBatchSignature(t *testing.T) {
	// The deferred hook's purpose: several blocks' roots signed by one
	// batch signature, each receiving a blob instead of a plain
	// signature, must verify when the scheme was built from a
	// batch-capable signer.
	signer := crypto.BatchCapable(crypto.NewSignerFromString("deferred-batch"))
	s := diamondSignedBy(t, signer)
	payloads := schemetest.Payloads(4)

	const nBlocks = 3
	var (
		roots    []*scheme.PendingRoot
		contents [][]byte
		blocks   [][]*packet.Packet
	)
	for b := uint64(0); b < nBlocks; b++ {
		pkts, root, err := s.AuthenticateDeferred(b, payloads)
		if err != nil {
			t.Fatal(err)
		}
		roots = append(roots, root)
		contents = append(contents, root.Content)
		blocks = append(blocks, pkts)
	}
	blobs, err := crypto.BatchSign(signer, contents)
	if err != nil {
		t.Fatal(err)
	}
	for i, root := range roots {
		root.Attach(blobs[i])
	}
	for b, pkts := range blocks {
		if n := verifyAll(t, s, pkts); n != 4 {
			t.Fatalf("block %d: batch-signed block verified %d of 4 packets", b, n)
		}
	}
}

func TestPendingRootRejectsTamper(t *testing.T) {
	// A batch blob for the wrong root must not verify the block.
	signer := crypto.BatchCapable(crypto.NewSignerFromString("deferred-wrong"))
	s := diamondSignedBy(t, signer)
	payloads := schemetest.Payloads(4)
	pktsA, rootA, err := s.AuthenticateDeferred(1, payloads)
	if err != nil {
		t.Fatal(err)
	}
	_, rootB, err := s.AuthenticateDeferred(2, payloads)
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := crypto.BatchSign(signer, [][]byte{rootB.Content})
	if err != nil {
		t.Fatal(err)
	}
	rootA.Attach(blobs[0]) // wrong block's signature
	if n := verifyAll(t, s, pktsA); n != 0 {
		t.Fatalf("cross-attached signature verified %d packets, want 0", n)
	}
}
