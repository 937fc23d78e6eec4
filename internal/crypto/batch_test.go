package crypto

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func batchContents(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("block-root-%04d", i))
	}
	return out
}

func TestBatchSignVerifyAllSizes(t *testing.T) {
	signer := NewSignerFromString("batch")
	pub := newBatchVerifier(signer.Public())
	for _, n := range []int{1, 2, 3, 5, 8, 17, 64} {
		contents := batchContents(n)
		blobs, err := BatchSign(signer, contents)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, blob := range blobs {
			if len(blob) == signatureSize {
				t.Fatalf("n=%d: blob %d is indistinguishable from a plain signature", n, i)
			}
			if !pub.Verify(contents[i], blob) {
				t.Errorf("n=%d: blob %d does not verify", n, i)
			}
			// A blob only authenticates its own leaf.
			other := contents[(i+1)%n]
			if n > 1 && pub.Verify(other, blob) {
				t.Errorf("n=%d: blob %d verifies the wrong content", n, i)
			}
		}
	}
}

func TestBatchVerifierStillAcceptsPlainSignatures(t *testing.T) {
	signer := NewSignerFromString("plain")
	pub := newBatchVerifier(signer.Public())
	msg := []byte("ordinary message")
	sig := signer.Sign(msg)
	if !pub.Verify(msg, sig) {
		t.Fatal("plain signature rejected by batch verifier")
	}
	if pub.Verify([]byte("other"), sig) {
		t.Fatal("plain signature verified wrong message")
	}
}

func TestBatchCapableSignerRoundTrip(t *testing.T) {
	signer := BatchCapable(NewSignerFromString("capable"))
	if BatchCapable(signer) != signer {
		t.Fatal("double wrap should be a no-op")
	}
	msg := []byte("content")
	if !signer.Public().Verify(msg, signer.Sign(msg)) {
		t.Fatal("plain path broken")
	}
	blobs, err := BatchSign(signer, [][]byte{msg, []byte("second")})
	if err != nil {
		t.Fatal(err)
	}
	if !signer.Public().Verify(msg, blobs[0]) {
		t.Fatal("batch path broken")
	}
	if !bytes.Equal(signer.Public().Bytes(), NewSignerFromString("capable").Public().Bytes()) {
		t.Fatal("wrapping changed the public key encoding")
	}
}

func TestBatchBlobTamperRejected(t *testing.T) {
	signer := NewSignerFromString("tamper")
	pub := newBatchVerifier(signer.Public())
	contents := batchContents(5)
	blobs, err := BatchSign(signer, contents)
	if err != nil {
		t.Fatal(err)
	}
	blob := blobs[2]
	for bit := 0; bit < len(blob)*8; bit += 7 {
		evil := append([]byte(nil), blob...)
		evil[bit/8] ^= 1 << (bit % 8)
		if pub.Verify(contents[2], evil) {
			t.Fatalf("accepted blob with bit %d flipped", bit)
		}
	}
	// Truncations and extensions must fail too.
	for _, cut := range []int{1, signatureSize, len(blob) - 1} {
		if pub.Verify(contents[2], blob[:cut]) {
			t.Fatalf("accepted truncation to %d bytes", cut)
		}
	}
	if pub.Verify(contents[2], append(append([]byte(nil), blob...), 0)) {
		t.Fatal("accepted extended blob")
	}
}

func TestBatchSignValidation(t *testing.T) {
	signer := NewSignerFromString("v")
	if _, err := BatchSign(nil, batchContents(1)); err == nil {
		t.Error("nil signer accepted")
	}
	if _, err := BatchSign(signer, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := BatchSign(signer, batchContents(MaxBatch+1)); err == nil {
		t.Error("oversized batch accepted")
	}
}

func TestBatchSignerAutoFlushAndTotals(t *testing.T) {
	signer := NewSignerFromString("auto")
	b, err := NewBatchSigner(signer, 4)
	if err != nil {
		t.Fatal(err)
	}
	contents := batchContents(10)
	sigs := make([][]byte, len(contents))
	for i, c := range contents {
		i := i
		pending, err := b.Enqueue(c, func(sig []byte) { sigs[i] = sig })
		if err != nil {
			t.Fatal(err)
		}
		wantPending := (i + 1) % 4
		if pending != wantPending {
			t.Fatalf("after enqueue %d: pending %d, want %d", i, pending, wantPending)
		}
	}
	// 8 of 10 signed by two auto-flushes; flush the tail.
	signed, err := b.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if signed != 2 {
		t.Fatalf("final flush signed %d, want 2", signed)
	}
	if again, _ := b.Flush(); again != 0 {
		t.Fatalf("idle flush signed %d", again)
	}
	pub := b.public()
	for i, sig := range sigs {
		if sig == nil {
			t.Fatalf("content %d never signed", i)
		}
		if !pub.Verify(contents[i], sig) {
			t.Fatalf("content %d does not verify", i)
		}
	}
	tot := b.Totals()
	if tot.Signatures != 3 || tot.SignedRoots != 10 || tot.Flushes != 3 {
		t.Fatalf("totals %+v, want 3 signatures over 10 roots in 3 flushes", tot)
	}
	if ratio := tot.AmortizationRatio(); ratio <= 1 {
		t.Fatalf("amortization ratio %v, want > 1", ratio)
	}
}

// FlushAt signs only a batch that has reached its count, so the second of
// two callers that saw the same batch reach it signs nothing.
func TestBatchSignerFlushAt(t *testing.T) {
	b, err := NewBatchSigner(NewSignerFromString("flushat"), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range batchContents(3) {
		if _, err := b.Enqueue(c, func([]byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	for _, step := range []struct{ at, want int }{{4, 0}, {3, 3}, {3, 0}, {1, 0}} {
		if n, err := b.FlushAt(step.at); err != nil || n != step.want {
			t.Fatalf("FlushAt(%d) = %d, %v; want %d signed", step.at, n, err, step.want)
		}
	}
	if tot := b.Totals(); tot.Signatures != 1 || tot.SignedRoots != 3 {
		t.Fatalf("totals %+v, want one signature over 3 roots", tot)
	}
}

// A flush holding one message signs it plainly: 64 bytes, not a 73-byte
// one-leaf blob. Both singleton forms verify under the batch-aware key —
// synchronously and through the deferred queue — and the totals cannot
// tell them apart.
func TestBatchSignerSingletonSignsPlain(t *testing.T) {
	signer := NewSignerFromString("singleton")
	b, err := NewBatchSigner(signer, 4)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("the only pending root")
	var plain []byte
	if _, err := b.Enqueue(msg, func(sig []byte) { plain = sig }); err != nil {
		t.Fatal(err)
	}
	if n, err := b.Flush(); err != nil || n != 1 {
		t.Fatalf("flush signed %d (%v), want 1", n, err)
	}
	if len(plain) != signatureSize {
		t.Fatalf("singleton flush produced %d bytes, want a plain %d-byte signature", len(plain), signatureSize)
	}
	if !signer.Public().Verify(msg, plain) {
		t.Fatal("singleton signature does not verify under the plain key")
	}
	blobs, err := BatchSign(signer, [][]byte{msg})
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewBatchVerifyQueue(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	pub := b.public()
	for name, sig := range map[string][]byte{"plain": plain, "blob": blobs[0]} {
		if !pub.Verify(msg, sig) {
			t.Errorf("%s singleton rejected by the batch-aware verifier", name)
		}
		if pub.Verify([]byte("another root"), sig) {
			t.Errorf("%s singleton verifies the wrong content", name)
		}
		deferred := false
		q.Enqueue(signer.Public(), msg, sig, func(ok bool) { deferred = ok })
		q.Resolve()
		if !deferred {
			t.Errorf("%s singleton rejected by the deferred queue", name)
		}
	}
	// One flush of one message reads the same as one flush of a one-leaf
	// batch did: one signature, one root.
	if tot := b.Totals(); tot != (BatchTotals{Enqueued: 1, Signatures: 1, SignedRoots: 1, Flushes: 1}) {
		t.Fatalf("totals %+v, want one signature over one root in one flush", tot)
	}
	// A second message alone in the next flush, then a pair: the pair is
	// a blob again.
	var pair [2][]byte
	for i := range pair {
		if _, err := b.Enqueue(msg, func(sig []byte) { pair[i] = sig }); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, sig := range pair {
		if len(sig) == signatureSize || !pub.Verify(msg, sig) {
			t.Errorf("pair member %d: %d-byte signature, verifies %v; want a verifying blob", i, len(sig), pub.Verify(msg, sig))
		}
	}
	if tot := b.Totals(); tot.Enqueued != 3 || tot.Signatures != 2 || tot.SignedRoots != 3 {
		t.Fatalf("totals %+v, want 2 signatures over 3 roots", tot)
	}
}

func TestBatchSignerConcurrentEnqueue(t *testing.T) {
	signer := NewSignerFromString("conc")
	b, err := NewBatchSigner(signer, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Enqueue signs at 7; a goroutine that brings the batch to fillAt signs
	// it with FlushAt, as the server does below BatchSize.
	const goroutines, perG, fillAt = 8, 50, 3
	var (
		mu    sync.Mutex
		got   int
		wg    sync.WaitGroup
		pub   = b.public()
		check = func(content, sig []byte) {
			if !pub.Verify(content, sig) {
				t.Error("concurrent signature does not verify")
			}
			mu.Lock()
			got++
			mu.Unlock()
		}
	)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				content := []byte(fmt.Sprintf("g%d-i%d", g, i))
				pending, err := b.Enqueue(content, func(sig []byte) { check(content, sig) })
				if err == nil && pending >= fillAt {
					_, err = b.FlushAt(fillAt)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if _, err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got != goroutines*perG {
		t.Fatalf("delivered %d signatures, want %d", got, goroutines*perG)
	}
	tot := b.Totals()
	if tot.SignedRoots != goroutines*perG {
		t.Fatalf("signed roots %d, want %d", tot.SignedRoots, goroutines*perG)
	}
	if tot.Signatures >= tot.SignedRoots {
		t.Fatalf("no amortization: %d signatures for %d roots", tot.Signatures, tot.SignedRoots)
	}
	// Only the final Flush may sign fewer than fillAt.
	if tot.SignedRoots < fillAt*(tot.Signatures-1) {
		t.Fatalf("%d signatures over %d roots: a racing FlushAt signed a batch short of %d", tot.Signatures, tot.SignedRoots, fillAt)
	}
}

func TestNewBatchSignerValidation(t *testing.T) {
	signer := NewSignerFromString("nv")
	if _, err := NewBatchSigner(nil, 4); err == nil {
		t.Error("nil signer accepted")
	}
	for _, k := range []int{0, -1, MaxBatch + 1} {
		if _, err := NewBatchSigner(signer, k); err == nil {
			t.Errorf("max batch %d accepted", k)
		}
	}
	b, err := NewBatchSigner(signer, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Enqueue([]byte("x"), nil); err == nil {
		t.Error("nil deliver accepted")
	}
}

// TestBatchBlobHeader: the blob header has one encoding. A blob rebuilt
// from a real one's signature and path verifies when its header is the
// canonical one, and is refused by the parser when the count or index is
// an overlong varint, the count is 0 or over MaxBatch, or the index is not
// below the count. A 64-byte signature still verifies as plain.
func TestBatchBlobHeader(t *testing.T) {
	signer := NewSignerFromString("header")
	pub := newBatchVerifier(signer.Public())
	contents := batchContents(2)
	blobs, err := BatchSign(signer, contents)
	if err != nil {
		t.Fatal(err)
	}
	// Count 2 and index 1 are one varint byte each.
	sigAndPath := blobs[1][3:]
	header := func(varints ...byte) []byte {
		return append(append([]byte{batchSigTag}, varints...), sigAndPath...)
	}
	if !bytes.Equal(header(2, 1), blobs[1]) || !pub.Verify(contents[1], header(2, 1)) {
		t.Fatal("the canonical header does not rebuild a verifying blob")
	}
	for _, c := range []struct {
		name string
		blob []byte
	}{
		{"overlong count", header(0x82, 0x00, 1)},
		{"overlong index", header(2, 0x81, 0x00)},
		{"count 0", header(0, 0)},
		{"index equal to count", header(2, 2)},
		{"index above count", header(2, 0x80, 0x01)},
		{"count over MaxBatch", append(appendBatchHeader(nil, MaxBatch+1, 1), sigAndPath...)},
	} {
		if _, _, _, _, ok := splitBatchBlob(c.blob); ok {
			t.Errorf("%s: parsed as a blob", c.name)
		}
		if pub.Verify(contents[1], c.blob) {
			t.Errorf("%s: verified", c.name)
		}
	}
	plain := signer.Sign(contents[0])
	if _, _, _, _, ok := splitBatchBlob(plain); ok {
		t.Error("a plain signature parsed as a blob")
	}
	if !pub.Verify(contents[0], plain) {
		t.Error("a plain signature no longer verifies")
	}
}

// FuzzBatchBlob feeds arbitrary bytes to the blob parser, the signature
// field's attacker-controlled varint reader: the split and the Merkle path
// walk never panic, an accepted blob re-encodes byte for byte, and a
// 64-byte input, a plain signature's length, is never parsed as a blob.
func FuzzBatchBlob(f *testing.F) {
	signer := NewSignerFromString("fuzz")
	for _, n := range []int{1, 2, 5, 64} {
		blobs, err := BatchSign(signer, batchContents(n))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blobs[n-1])
	}
	f.Add(signer.Sign([]byte("plain")))
	f.Add([]byte{})
	f.Add([]byte{batchSigTag})
	f.Add(append([]byte{batchSigTag, 0x82, 0x00, 1}, make([]byte, signatureSize+HashSize)...))

	var hs HashScratch
	leaf := batchLeaf(&hs, []byte("leaf"))
	f.Fuzz(func(t *testing.T, blob []byte) {
		count, index, sig, path, ok := splitBatchBlob(blob)
		if !ok {
			return
		}
		if len(blob) == signatureSize {
			t.Fatal("a 64-byte input parsed as a blob")
		}
		again := append(append(appendBatchHeader(nil, count, index), sig...), path...)
		if !bytes.Equal(again, blob) {
			t.Fatalf("blob %x re-encodes as %x", blob, again)
		}
		root, ok := batchRootWalk(leaf, index, count, path)
		rootScratch, okScratch := batchRootFromPath(&hs, leaf, index, count, path)
		if ok != okScratch || root != rootScratch {
			t.Fatal("the two path walks disagree")
		}
	})
}
