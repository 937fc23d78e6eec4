// SharedCache: the cross-subscriber hash-verification cache of the
// receiver fast path. One Demux-fed process fanning a stream out to many
// subscribers ingests the same wire packet into every subscriber's
// verifier; without sharing, each of them hashes the packet content and
// re-proves the same digest. The cache shares both steps: a pointer-keyed
// content-digest memo (hash each packet once per process) and an
// authenticated-digest set keyed by (stream, block, digest) (prove each
// digest once per stream).
//
// Caching on the content digest is forgery-safe: the digest is SHA-256
// over the packet's full authenticated content (block, index, payload,
// carried hashes), so a hit asserts exactly "a packet with this content
// was already proven authentic in this stream and block". A forged packet
// differs in content, hashes to a different digest, and misses; only
// packets that completed real verification are marked. The cache can
// therefore only skip work, never widen what is accepted — up to SHA-256
// collisions, which the schemes already rely on. Streams must map 1:1 to
// trust domains (one signing key per stream ID), which is how the Demux
// receiver factories are built.
package verifier

import (
	"fmt"
	"sync"

	"mcauth/internal/crypto"
	"mcauth/internal/obs"
	"mcauth/internal/packet"
)

// authKey identifies one authenticated content digest within a stream.
type authKey struct {
	stream uint64
	block  uint64
	digest crypto.Digest
}

// CacheStats snapshots a SharedCache's lifetime counters.
type CacheStats struct {
	// Hits and Misses count IsAuthentic lookups (also exported as the
	// verify.cache_hits / verify.cache_misses registry counters).
	Hits   int64
	Misses int64
	// DigestHits and DigestMisses count DigestOf memo lookups.
	DigestHits   int64
	DigestMisses int64
	// Evicted counts entries dropped by generation rotation, from both
	// tables.
	Evicted int64
}

// SharedCache bounds each of its two tables with a crypto.Memo (at most
// 2*max entries each). Safe for concurrent use by many subscribers.
type SharedCache struct {
	mu    sync.Mutex
	auth  crypto.Memo[authKey, struct{}]
	dig   crypto.Memo[*packet.Packet, crypto.Digest]
	stats CacheStats

	hits   *obs.Counter
	misses *obs.Counter
}

// NewSharedCache creates a cache bounded at 2*max authenticated digests
// and 2*max memoized packet digests.
func NewSharedCache(max int) (*SharedCache, error) {
	if max < 1 {
		return nil, fmt.Errorf("verifier: shared cache size %d must be >= 1", max)
	}
	return &SharedCache{
		auth: crypto.NewMemo[authKey, struct{}](max),
		dig:  crypto.NewMemo[*packet.Packet, crypto.Digest](max),
	}, nil
}

// SetMetrics exports hit/miss counts as verify.cache_hits and
// verify.cache_misses in reg (nil disables).
func (c *SharedCache) SetMetrics(reg *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if reg == nil {
		c.hits, c.misses = nil, nil
		return
	}
	c.hits = reg.Counter("verify.cache_hits")
	c.misses = reg.Counter("verify.cache_misses")
}

// DigestOf returns the packet's authenticated-content digest, hashing at
// most once per packet pointer process-wide. Correct because packets are
// immutable once constructed (senders fill content before the packet is
// shared; deferred signing attaches only the signature, which is outside
// the content).
func (c *SharedCache) DigestOf(p *packet.Packet) crypto.Digest {
	c.mu.Lock()
	if d, ok := c.dig.Get(p); ok {
		c.stats.DigestHits++
		c.mu.Unlock()
		return d
	}
	c.stats.DigestMisses++
	c.mu.Unlock()
	// Hash outside the lock: digesting a large payload must not serialize
	// every subscriber. Concurrent first-lookups may hash twice; both
	// compute the same value.
	d := p.Digest()
	c.mu.Lock()
	c.dig.Put(p, d)
	c.mu.Unlock()
	return d
}

// IsAuthentic reports whether a packet with this content digest has
// already been proven authentic in (stream, block).
func (c *SharedCache) IsAuthentic(stream, block uint64, digest crypto.Digest) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.auth.Get(authKey{stream: stream, block: block, digest: digest}); ok {
		c.stats.Hits++
		if c.hits != nil {
			c.hits.Inc()
		}
		return true
	}
	c.stats.Misses++
	if c.misses != nil {
		c.misses.Inc()
	}
	return false
}

// MarkAuthentic records that a packet with this content digest completed
// verification in (stream, block). Callers must only mark digests of
// packets that a real signature / digest-chain / MAC check accepted.
func (c *SharedCache) MarkAuthentic(stream, block uint64, digest crypto.Digest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.auth.Put(authKey{stream: stream, block: block, digest: digest}, struct{}{})
}

// Len returns the number of cached authenticated digests.
func (c *SharedCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.auth.Len()
}

// Stats snapshots the lifetime counters.
func (c *SharedCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Evicted = c.auth.Evicted() + c.dig.Evicted()
	return st
}
