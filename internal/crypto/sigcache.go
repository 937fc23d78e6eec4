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
// The cache is a Memo of at most 2*max entries. Safe for concurrent use.
//
// Concurrent first lookups of one check run it once: the synchronous path
// (VerifyCached) claims a missed key while it verifies, and a second
// goroutine missing the same key waits for that verdict rather than repeat
// the public-key operation. Simulated receivers are all handed the same
// signed bytes at once, so without the claim the number of real checks —
// and with it crypto.verify_ops and the hit/miss counts — would depend on the
// worker count. A check that fails is not stored, so each waiter then claims
// and runs it in turn: a miss always ends in the caller's own check.
type SigCache struct {
	mu       sync.Mutex
	checks   Memo[sigKey, struct{}]
	checking map[sigKey]struct{} // keys claimed by a check running now
	settled  sync.Cond           // on mu; broadcast when a claim is released
	stats    SigCacheStats
}

// NewSigCache creates a cache holding at most 2*max verified checks.
func NewSigCache(max int) (*SigCache, error) {
	if max < 1 {
		return nil, fmt.Errorf("crypto: sig cache size %d must be >= 1", max)
	}
	c := &SigCache{checks: NewMemo[sigKey, struct{}](max), checking: make(map[sigKey]struct{})}
	c.settled.L = &c.mu
	return c, nil
}

// hitLocked reports whether the check previously succeeded, counting the
// hit.
func (c *SigCache) hitLocked(k sigKey) bool {
	_, ok := c.checks.Get(k)
	if ok {
		c.stats.Hits++
	}
	return ok
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
		c.checks.Put(k, struct{}{})
	}
	c.mu.Unlock()
	c.settled.Broadcast()
}

// store records a successful check.
func (c *SigCache) store(k sigKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checks.Put(k, struct{}{})
}

// Len returns the number of cached checks.
func (c *SigCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.checks.Len()
}

// Stats snapshots the lifetime counters.
func (c *SigCache) Stats() SigCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Evicted = c.checks.Evicted()
	return st
}

// VerifyScratch holds the reusable buffers one caller needs to verify
// plain signatures and batch blobs without allocating. Not safe for
// concurrent use; hot paths hold one per verifier.
type VerifyScratch struct {
	hs  HashScratch
	msg []byte // batch root-message staging
}

// underlying maps the check of sig over content under pub to the one plain
// signature check pub.Verify rests on: a plain key's own, or a batch-capable
// key's inner key over content or, for a batch blob, over the blob's root
// message, staged in s (valid until s is used again). ok is false where
// pub.Verify refuses without a public-key operation: a batch blob or a
// signature of the wrong length under a plain key, a malformed blob, a nil
// key. key is nil, with ok true, for a key of a type this package does not
// define: its Verify is not known to be a function of the check, so the
// caller calls it directly.
func (s *VerifyScratch) underlying(pub Verifier, content, sig []byte) (key Verifier, msg, plain []byte, ok bool) {
	switch v := pub.(type) {
	case nil:
		return nil, nil, nil, false
	case *ed25519Verifier:
		return v, content, sig, len(sig) == signatureSize
	case *batchVerifier:
		if len(sig) == signatureSize {
			return v.inner, content, sig, true
		}
		count, index, inner, path, ok := splitBatchBlob(sig)
		if !ok {
			return nil, nil, nil, false
		}
		leaf := batchLeaf(&s.hs, content)
		root, ok := batchRootFromPath(&s.hs, leaf, index, count, path)
		if !ok {
			return nil, nil, nil, false
		}
		s.msg = append(s.msg[:0], batchRootLabel...)
		s.msg = append(s.msg, root[:]...)
		return v.inner, s.msg, inner, true
	default:
		return nil, content, sig, true
	}
}

// VerifyCached returns exactly what pub.Verify(content, sig) returns — the
// key decides: a crypto.BatchCapable key accepts a batch blob over content,
// a plain key refuses one — but skips the public-key operation when cache
// has seen the same underlying check succeed. A batch blob always pays its
// (cheap) Merkle path walk; only the public-key operation is cached, so the
// blobs of one flush share one. cache may be nil (no caching) and scratch
// may be nil (staging allocated per call). sum is nil or HashBytes(content)
// when the caller already holds it, so that a plain signature's cache key
// hashes nothing. A Verifier of a type this package does not define is
// called directly: its Verify is not known to be a function of the cache
// key.
func VerifyCached(cache *SigCache, scratch *VerifyScratch, pub Verifier, content []byte, sum *Digest, sig []byte) bool {
	if scratch == nil {
		scratch = &VerifyScratch{}
	}
	key, msg, plain, ok := scratch.underlying(pub, content, sig)
	switch {
	case !ok:
		return false
	case key == nil:
		return pub.Verify(content, sig)
	case len(sig) != signatureSize:
		sum = nil // a blob's check is over its root message, not content
	}
	return verifyCachedPlain(cache, key, msg, sum, plain)
}

// verifyCachedPlain runs one plain signature check through the cache.
func verifyCachedPlain(cache *SigCache, pub Verifier, msg []byte, sum *Digest, sig []byte) bool {
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
