package crypto

import (
	"fmt"
	"sync"
)

// sigKey identifies one underlying signature check: which public key,
// which signed message (by digest — collision resistance of SHA-256 makes
// the digest stand in for the message), and which signature bytes. Batch
// blobs reduce to their inner (root-message, inner-signature) check, so
// every blob from the same flush shares one key.
type sigKey struct {
	pub Digest
	msg Digest
	sig [signatureSize]byte
}

// makeSigKey builds the cache key for a plain signature check. Public
// keys are used verbatim when they are already digest-sized (Ed25519) and
// hashed down otherwise, so distinct keys can never alias. sum, when the
// caller already holds it, is HashBytes(msg).
func makeSigKey(pub Verifier, msg []byte, sum *Digest, sig []byte) sigKey {
	var k sigKey
	pb := verifierKeyBytes(pub)
	if len(pb) == HashSize {
		copy(k.pub[:], pb)
	} else {
		k.pub = HashBytes(pb)
	}
	if sum != nil {
		k.msg = *sum
	} else {
		k.msg = HashBytes(msg)
	}
	copy(k.sig[:], sig)
	return k
}

// verifierKeyBytes returns a verifier's public-key bytes without copying
// for the package's own types (Bytes() allocates a defensive copy, which
// would put an allocation on every cached verify).
func verifierKeyBytes(pub Verifier) []byte {
	switch v := pub.(type) {
	case *ed25519Verifier:
		return v.pub
	case *batchVerifier:
		return verifierKeyBytes(v.inner)
	default:
		return pub.Bytes()
	}
}

// SigCacheStats snapshots a SigCache's lifetime counters.
type SigCacheStats struct {
	Hits   int64
	Misses int64
	// Evicted counts entries dropped by generation rotation.
	Evicted int64
}

// SigCache remembers signature checks that have already succeeded, so the
// same underlying Ed25519 verification is never repeated: every packet of
// a Wong–Lam tree block carries the same root signature, and every blob
// of a batch-signature flush shares one inner signature, so one real
// verify amortizes across the whole group. Only successes are stored —
// a forged signature can never become a cache hit — and the key binds
// public key, message digest, and signature bytes, so a hit is exactly as
// strong as the original check (up to SHA-256 collisions).
//
// The cache is bounded with two-generation rotation (at most 2*max
// entries): inserts and promoted hits go to the current generation; when
// it fills, it becomes the previous generation and the old previous is
// dropped. Rotation is O(1) per insert, unlike scan-based LRU. Safe for
// concurrent use.
//
// Concurrent first lookups of one check run it once: the synchronous path
// (VerifyCached, VerifyAnyCached) claims a missed key while it verifies, and
// a second goroutine missing the same key waits for that verdict rather than
// repeat the public-key operation. Simulated receivers are all handed the
// same signed bytes at once, so without the claim the number of real checks —
// and with it crypto.verify_ops and the hit/miss counts — would depend on the
// worker count. A check that fails is not stored, so each waiter then claims
// and runs it in turn: a miss always ends in the caller's own check.
type SigCache struct {
	mu        sync.Mutex
	max       int
	cur, prev map[sigKey]struct{}
	checking  map[sigKey]struct{} // keys claimed by a check running now
	settled   sync.Cond           // on mu; broadcast when a claim is released
	stats     SigCacheStats
}

// NewSigCache creates a cache holding at most 2*max verified checks.
func NewSigCache(max int) (*SigCache, error) {
	if max < 1 {
		return nil, fmt.Errorf("crypto: sig cache size %d must be >= 1", max)
	}
	c := &SigCache{max: max, cur: make(map[sigKey]struct{}), checking: make(map[sigKey]struct{})}
	c.settled.L = &c.mu
	return c, nil
}

// hitLocked reports whether the check previously succeeded, counting the
// hit and promoting it from the previous generation so hot entries survive
// rotation.
func (c *SigCache) hitLocked(k sigKey) bool {
	if _, ok := c.cur[k]; ok {
		c.stats.Hits++
		return true
	}
	if _, ok := c.prev[k]; ok {
		c.stats.Hits++
		c.storeLocked(k)
		return true
	}
	return false
}

// seen reports whether the check previously succeeded.
func (c *SigCache) seen(k sigKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.hitLocked(k) {
		return true
	}
	c.stats.Misses++
	return false
}

// begin is seen for a caller that will run the missed check at once: false
// claims k, first waiting out any claim another goroutine holds on it, and
// the caller must release the claim with end.
func (c *SigCache) begin(k sigKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.hitLocked(k) {
			return true
		}
		if _, claimed := c.checking[k]; !claimed {
			c.checking[k] = struct{}{}
			c.stats.Misses++
			return false
		}
		c.settled.Wait()
	}
}

// end releases the claim begin took on k, recording the check if it
// succeeded.
func (c *SigCache) end(k sigKey, ok bool) {
	c.mu.Lock()
	delete(c.checking, k)
	if ok {
		c.storeLocked(k)
	}
	c.mu.Unlock()
	c.settled.Broadcast()
}

// store records a successful check.
func (c *SigCache) store(k sigKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.storeLocked(k)
}

func (c *SigCache) storeLocked(k sigKey) {
	if len(c.cur) >= c.max {
		c.stats.Evicted += int64(len(c.prev))
		c.prev = c.cur
		c.cur = make(map[sigKey]struct{}, c.max)
	}
	c.cur[k] = struct{}{}
}

// Len returns the number of cached checks.
func (c *SigCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cur) + len(c.prev)
}

// Stats snapshots the lifetime counters.
func (c *SigCache) Stats() SigCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// VerifyScratch holds the reusable buffers one caller needs to verify
// plain signatures and batch blobs without allocating. Not safe for
// concurrent use; hot paths hold one per verifier.
type VerifyScratch struct {
	hs  HashScratch
	msg []byte // batch root-message staging
}

// batchLeafScratch is batchLeaf without the HashConcat allocations.
func batchLeafScratch(hs *HashScratch, content []byte) Digest {
	hs.Reset()
	hs.Write(batchLeafLabel)
	hs.Write(content)
	return hs.Sum()
}

// batchRootFromPathScratch is batchRootFromPath with node hashing done in
// the caller's scratch. Identical results.
func batchRootFromPathScratch(hs *HashScratch, leaf Digest, index, count uint32, path []byte) (Digest, bool) {
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
			hs.Reset()
			hs.Write(batchNodeLabel)
			if idx&1 == 0 {
				hs.Write(node[:])
				hs.Write(path[off : off+HashSize])
			} else {
				hs.Write(path[off : off+HashSize])
				hs.Write(node[:])
			}
			node = hs.Sum()
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

// VerifyAnyCached checks sig — a plain Ed25519 signature or a batch
// signature blob — of content under pub, consulting cache to skip checks
// that already succeeded. Batch blobs always pay the (cheap) Merkle path
// walk; only the underlying public-key operation is cached. cache may be
// nil (no caching) and scratch may be nil (allocates staging per call).
// Results match Verifier.Verify / verifyBatchBlob exactly.
func VerifyAnyCached(cache *SigCache, scratch *VerifyScratch, pub Verifier, content, sig []byte) bool {
	return verifyAnyCached(cache, scratch, pub, content, nil, sig)
}

// verifyAnyCached is VerifyAnyCached with VerifyCached's sum.
func verifyAnyCached(cache *SigCache, scratch *VerifyScratch, pub Verifier, content []byte, sum *Digest, sig []byte) bool {
	if pub == nil {
		return false
	}
	if len(sig) == signatureSize {
		return verifyCachedPlain(cache, pub, content, sum, sig)
	}
	if scratch == nil {
		scratch = &VerifyScratch{}
	}
	count, index, inner, path, ok := splitBatchBlob(sig)
	if !ok {
		return false
	}
	leaf := batchLeafScratch(&scratch.hs, content)
	root, ok := batchRootFromPathScratch(&scratch.hs, leaf, index, count, path)
	if !ok {
		return false
	}
	scratch.msg = append(scratch.msg[:0], batchRootLabel...)
	scratch.msg = append(scratch.msg, root[:]...)
	return verifyCachedPlain(cache, pub, scratch.msg, nil, inner)
}

// VerifyCached returns exactly what pub.Verify(content, sig) returns — a
// plain key still refuses a batch blob, which VerifyAnyCached would accept —
// but skips the public-key operation when cache has seen the same check
// succeed. cache and scratch may be nil, as for VerifyAnyCached. sum is nil
// or HashBytes(content) when the caller already holds it, so that a plain
// signature's cache key hashes nothing. A Verifier of a type this package
// does not define is called directly: its Verify is not known to be a
// function of the cache key.
func VerifyCached(cache *SigCache, scratch *VerifyScratch, pub Verifier, content []byte, sum *Digest, sig []byte) bool {
	switch v := pub.(type) {
	case *ed25519Verifier:
		return verifyCachedPlain(cache, v, content, sum, sig)
	case *batchVerifier:
		return verifyAnyCached(cache, scratch, v.inner, content, sum, sig)
	default:
		return pub.Verify(content, sig)
	}
}

// verifyCachedPlain runs one plain signature check through the cache.
func verifyCachedPlain(cache *SigCache, pub Verifier, msg []byte, sum *Digest, sig []byte) bool {
	if len(sig) != signatureSize {
		return false
	}
	if cache == nil {
		return pub.Verify(msg, sig)
	}
	k := makeSigKey(pub, msg, sum, sig)
	if cache.begin(k) {
		return true
	}
	ok := pub.Verify(msg, sig)
	cache.end(k, ok)
	return ok
}
