// Batch signatures: one digital signature amortized over up to K block
// roots (the MABS idea — Merkle-tree batch signing). The signer collects
// pending messages, builds a Merkle tree over their digests, signs the tree
// root once, and hands every message a self-contained signature blob
// (signature + leaf index + authentication path). Verification recomputes
// the Merkle root from the message and its path and checks the one
// signature, so receivers need only the ordinary public key.
//
// The blob format is distinguishable from a plain Ed25519 signature by
// length (a plain signature is exactly signatureSize bytes; a batch blob
// is at least batchMinSize), so a batch-aware Verifier transparently
// accepts both — a sender can switch batching on or off without a key
// rollover.
package crypto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// MaxBatch bounds how many messages one signature may cover. The limit
// keeps the authentication path (32 bytes per tree level) comfortably
// inside the packet format's signature-blob limit.
const MaxBatch = 1024

// Domain-separation labels: leaves and interior nodes hash under distinct
// prefixes (second-preimage hardening), and the signed message is bound to
// the batch context so a batch root can never be confused with ordinary
// signed content.
var (
	batchLeafLabel = []byte{0x00}
	batchNodeLabel = []byte{0x01}
	batchRootLabel = []byte("mcauth/batch-sig/v1")
)

// batchSigTag leads every batch signature blob.
const batchSigTag = 0xB5

// batch blob layout: tag(1) | uvarint leafCount | uvarint leafIndex |
// sig(64) | path(depth * HashSize), both varints minimal. The shortest
// blob (one varint byte each, no path) is batchMinSize = 67 bytes, so a
// plain 64-byte signature never parses as a blob.
const batchMinSize = 1 + 1 + 1 + signatureSize

// appendBatchHeader appends a blob's tag, leaf count and leaf index.
func appendBatchHeader(blob []byte, count, index uint32) []byte {
	blob = binary.AppendUvarint(append(blob, batchSigTag), uint64(count))
	return binary.AppendUvarint(blob, uint64(index))
}

// batchUvarint reads one minimal varint of at most MaxBatch from the front
// of b and returns it with its length (0 when b holds none).
func batchUvarint(b []byte) (uint32, int) {
	v, n := binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) || v > MaxBatch {
		return 0, 0
	}
	return uint32(v), n
}

// splitBatchBlob parses a batch signature blob into its inner signature
// and the Merkle context needed to recompute the signed root message. It
// accepts only the one encoding appendBatchHeader writes: minimal
// varints, 1 <= count <= MaxBatch, index < count, and a whole number of
// path hashes.
func splitBatchBlob(blob []byte) (count, index uint32, sig, path []byte, ok bool) {
	if len(blob) < batchMinSize || blob[0] != batchSigTag {
		return 0, 0, nil, nil, false
	}
	rest := blob[1:]
	count, n := batchUvarint(rest)
	if n == 0 {
		return 0, 0, nil, nil, false
	}
	rest = rest[n:]
	if index, n = batchUvarint(rest); n == 0 {
		return 0, 0, nil, nil, false
	}
	rest = rest[n:]
	if count == 0 || index >= count || len(rest) < signatureSize || (len(rest)-signatureSize)%HashSize != 0 {
		return 0, 0, nil, nil, false
	}
	return count, index, rest[:signatureSize], rest[signatureSize:], true
}

// batchLeaf, batchNode and batchRootFromPath hash on the caller's scratch.
func batchLeaf(hs *HashScratch, content []byte) Digest {
	hs.Reset()
	hs.Write(batchLeafLabel)
	hs.Write(content)
	return hs.Sum()
}

func batchNode(hs *HashScratch, left, right []byte) Digest {
	hs.Reset()
	hs.Write(batchNodeLabel)
	hs.Write(left)
	hs.Write(right)
	return hs.Sum()
}

func batchRootMessage(root Digest) []byte {
	msg := make([]byte, 0, len(batchRootLabel)+HashSize)
	msg = append(msg, batchRootLabel...)
	return append(msg, root[:]...)
}

// batchRootFromPath folds a leaf back up to the Merkle root. Odd nodes are
// promoted unchanged (no duplication), so the walk consumes a path element
// only at levels where the node has a sibling; it fails if the supplied
// path has the wrong length for the leaf's position.
func batchRootFromPath(hs *HashScratch, leaf Digest, index, count uint32, path []byte) (Digest, bool) {
	if count == 0 || index >= count || count > MaxBatch {
		return Digest{}, false
	}
	node := leaf
	idx, width := index, count
	off := 0
	for width > 1 {
		sibling := idx ^ 1
		if sibling < width {
			if off+HashSize > len(path) {
				return Digest{}, false
			}
			sib := path[off : off+HashSize]
			if idx&1 == 0 {
				node = batchNode(hs, node[:], sib)
			} else {
				node = batchNode(hs, sib, node[:])
			}
			off += HashSize
		}
		idx /= 2
		width = (width + 1) / 2
	}
	if off != len(path) {
		return Digest{}, false
	}
	return node, true
}

// BatchSign signs all contents with one underlying signature and returns
// one self-contained signature blob per content, in input order. A batch
// of one still produces a (67-byte) batch blob; callers who want plain
// signatures for singletons should sign directly, as BatchSigner does.
func BatchSign(signer Signer, contents [][]byte) ([][]byte, error) {
	if signer == nil {
		return nil, errors.New("crypto: nil signer")
	}
	if len(contents) == 0 {
		return nil, errors.New("crypto: empty batch")
	}
	if len(contents) > MaxBatch {
		return nil, fmt.Errorf("crypto: batch %d exceeds %d", len(contents), MaxBatch)
	}
	// Build every tree level; levels[0] holds the leaves.
	var hs HashScratch
	levels := [][]Digest{make([]Digest, len(contents))}
	for i, c := range contents {
		levels[0][i] = batchLeaf(&hs, c)
	}
	for len(levels[len(levels)-1]) > 1 {
		prev := levels[len(levels)-1]
		next := make([]Digest, 0, (len(prev)+1)/2)
		for i := 0; i < len(prev); i += 2 {
			if i+1 < len(prev) {
				next = append(next, batchNode(&hs, prev[i][:], prev[i+1][:]))
			} else {
				next = append(next, prev[i]) // odd node promoted
			}
		}
		levels = append(levels, next)
	}
	root := levels[len(levels)-1][0]
	sig := signer.Sign(batchRootMessage(root))
	if len(sig) != signatureSize {
		return nil, fmt.Errorf("crypto: inner signature is %d bytes, want %d", len(sig), signatureSize)
	}

	count := uint32(len(contents))
	blobs := make([][]byte, len(contents))
	for i := range contents {
		blob := make([]byte, 0, 1+2*binary.MaxVarintLen32+signatureSize+len(levels)*HashSize)
		blob = append(appendBatchHeader(blob, count, uint32(i)), sig...)
		idx := uint32(i)
		width := count
		for _, level := range levels[:len(levels)-1] {
			sibling := idx ^ 1
			if sibling < width {
				blob = append(blob, level[sibling][:]...)
			}
			idx /= 2
			width = (width + 1) / 2
		}
		blobs[i] = blob
	}
	return blobs, nil
}

// verifyBatchBlob checks one batch signature blob against content under
// pub. It rejects plain signatures (use Verifier.Verify for those).
func verifyBatchBlob(pub Verifier, content, blob []byte) bool {
	if pub == nil {
		return false
	}
	count, index, sig, path, ok := splitBatchBlob(blob)
	if !ok {
		return false
	}
	var hs HashScratch
	root, ok := batchRootFromPath(&hs, batchLeaf(&hs, content), index, count, path)
	if !ok {
		return false
	}
	return pub.Verify(batchRootMessage(root), sig)
}

// batchVerifier accepts both plain signatures and batch blobs under one
// public key.
type batchVerifier struct {
	inner Verifier
}

// newBatchVerifier wraps a Verifier so it also accepts batch signature
// blobs produced by BatchSign / BatchSigner under the same key. Plain
// signatures (exactly signatureSize bytes) still verify directly.
func newBatchVerifier(inner Verifier) Verifier {
	if bv, ok := inner.(*batchVerifier); ok {
		return bv
	}
	return &batchVerifier{inner: inner}
}

// Verify holds no state of its own (a blob's Merkle walk allocates per
// call), so it is safe for concurrent use whenever the inner key is.
func (v *batchVerifier) Verify(data, sig []byte) bool {
	if len(sig) == signatureSize {
		return v.inner.Verify(data, sig)
	}
	return verifyBatchBlob(v.inner, data, sig)
}

func (v *batchVerifier) Bytes() []byte { return v.inner.Bytes() }

// batchCapableSigner delegates signing but hands out batch-aware public
// keys, so schemes built from it verify both plain and batched signatures.
type batchCapableSigner struct {
	inner Signer
}

// BatchCapable wraps a Signer so that Public() returns a batch-aware
// Verifier. Construct schemes with the wrapped signer when their blocks
// may be signed through a BatchSigner.
func BatchCapable(s Signer) Signer {
	if bc, ok := s.(*batchCapableSigner); ok {
		return bc
	}
	return &batchCapableSigner{inner: s}
}

func (s *batchCapableSigner) Sign(data []byte) []byte { return s.inner.Sign(data) }

func (s *batchCapableSigner) Public() Verifier { return newBatchVerifier(s.inner.Public()) }

// pendingItem is one enqueued message awaiting the batch signature.
type pendingItem struct {
	content []byte
	deliver func(sig []byte)
}

// BatchTotals snapshots a BatchSigner's lifetime counters.
type BatchTotals struct {
	// Enqueued is how many messages Enqueue has accepted, signed or still
	// pending; its growth over time is the signer's arrival rate.
	Enqueued int64
	// Signatures is how many underlying signature operations ran.
	Signatures int64
	// SignedRoots is how many messages those signatures covered. The
	// amortization ratio is SignedRoots / Signatures.
	SignedRoots int64
	// Flushes counts Flush calls that signed at least one message.
	Flushes int64
}

// AmortizationRatio returns SignedRoots / Signatures (0 before the first
// flush). A ratio above 1 means batching is paying for itself.
func (t BatchTotals) AmortizationRatio() float64 {
	if t.Signatures == 0 {
		return 0
	}
	return float64(t.SignedRoots) / float64(t.Signatures)
}

// BatchSigner accumulates messages and signs them MaxBatch-at-a-time (or
// whenever Flush is called — callers own the flush-deadline policy, since
// only they know how much latency a pending message may absorb). A flush
// that holds exactly one message signs it plainly (signatureSize bytes, no
// one-leaf blob); batch-aware verifiers accept either form and the totals
// count both the same. It is safe for concurrent use; deliver callbacks
// run outside the internal lock and may re-enter the signer.
type BatchSigner struct {
	mu      sync.Mutex
	inner   Signer
	max     int
	pending []pendingItem
	totals  BatchTotals
}

// NewBatchSigner creates a signer that flushes automatically at maxBatch
// pending messages (1 <= maxBatch <= MaxBatch). maxBatch of 1 degenerates
// to one signature per message.
func NewBatchSigner(inner Signer, maxBatch int) (*BatchSigner, error) {
	if inner == nil {
		return nil, errors.New("crypto: nil signer")
	}
	if maxBatch < 1 || maxBatch > MaxBatch {
		return nil, fmt.Errorf("crypto: max batch %d out of [1,%d]", maxBatch, MaxBatch)
	}
	return &BatchSigner{inner: inner, max: maxBatch}, nil
}

// public returns a batch-aware verification key.
func (b *BatchSigner) public() Verifier { return newBatchVerifier(b.inner.Public()) }

// Enqueue adds content to the pending batch; deliver is invoked with the
// signature blob when the batch is signed. The content slice is retained
// until then and must not be mutated by the caller. When the batch reaches
// the auto-flush threshold it is signed before Enqueue returns. Returns
// the number of messages still pending after the call.
func (b *BatchSigner) Enqueue(content []byte, deliver func(sig []byte)) (int, error) {
	if deliver == nil {
		return 0, errors.New("crypto: nil deliver callback")
	}
	b.mu.Lock()
	b.pending = append(b.pending, pendingItem{content: content, deliver: deliver})
	b.totals.Enqueued++
	if len(b.pending) < b.max {
		n := len(b.pending)
		b.mu.Unlock()
		return n, nil
	}
	items, err := b.flushLocked()
	b.mu.Unlock()
	if err != nil {
		return 0, err
	}
	deliverAll(items)
	return 0, nil
}

// Flush signs every pending message now and returns how many were signed.
// A no-op (and nil error) when nothing is pending.
func (b *BatchSigner) Flush() (int, error) { return b.FlushAt(1) }

// FlushAt signs the pending batch if at least n messages are pending and
// returns how many it signed. The check and the signing happen under one
// lock, so of two callers that both saw the batch reach n, the second
// finds it signed (or refilling) and signs nothing.
func (b *BatchSigner) FlushAt(n int) (int, error) {
	b.mu.Lock()
	if len(b.pending) < n {
		b.mu.Unlock()
		return 0, nil
	}
	items, err := b.flushLocked()
	b.mu.Unlock()
	if err != nil {
		return 0, err
	}
	deliverAll(items)
	return len(items), nil
}

// Totals snapshots the lifetime counters.
func (b *BatchSigner) Totals() BatchTotals {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.totals
}

// flushLocked signs the pending batch and returns the items with their
// signatures attached (stashed in content's place via closure pairing);
// callbacks must be run by the caller after releasing the lock, so a
// deliver callback that re-enters the signer cannot deadlock.
func (b *BatchSigner) flushLocked() ([]signedItem, error) {
	if len(b.pending) == 0 {
		return nil, nil
	}
	var blobs [][]byte
	if len(b.pending) == 1 {
		blobs = [][]byte{b.inner.Sign(b.pending[0].content)}
	} else {
		contents := make([][]byte, len(b.pending))
		for i, it := range b.pending {
			contents[i] = it.content
		}
		var err error
		if blobs, err = BatchSign(b.inner, contents); err != nil {
			return nil, err
		}
	}
	out := make([]signedItem, len(b.pending))
	for i, it := range b.pending {
		out[i] = signedItem{deliver: it.deliver, sig: blobs[i]}
	}
	b.totals.Signatures++
	b.totals.SignedRoots += int64(len(b.pending))
	b.totals.Flushes++
	b.pending = b.pending[:0]
	return out, nil
}

type signedItem struct {
	deliver func(sig []byte)
	sig     []byte
}

func deliverAll(items []signedItem) {
	for _, it := range items {
		it.deliver(it.sig)
	}
}
