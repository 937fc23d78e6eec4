// Batched signature verification: the receive-side mirror of BatchSigner.
// Callers enqueue pending (pub, content, sig) checks and receive a
// deferred verdict callback when the queue resolves. Resolution dedups the
// queue by underlying signature check — every packet of a Wong–Lam tree
// block repeats one root signature, and every blob of a batch-signature
// flush shares one inner signature — so one amortized pass performs each
// distinct Ed25519 verification once, and the distinct checks of a pass
// run on every core. A failed deduped check rejects the members that repeat
// it and re-verifies only those whose own message differs (a digest
// collision), so a forged signature costs one check without poisoning a
// verdict that merely shares its group.
package crypto

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"mcauth/internal/obs"
	"mcauth/internal/parallel"
)

// pendingVerify is one enqueued signature check awaiting resolution.
type pendingVerify struct {
	pub     Verifier
	content []byte
	sig     []byte
	done    func(ok bool)
}

// VerifyTotals snapshots a BatchVerifyQueue's lifetime counters.
type VerifyTotals struct {
	// Enqueued is how many checks were submitted.
	Enqueued int64
	// Resolves counts Resolve passes that settled at least one check.
	Resolves int64
	// Checks is how many underlying public-key verifications ran
	// (including fallback re-verifies). Enqueued/Checks is the
	// amortization ratio.
	Checks int64
	// MemoHits counts checks settled from the SigCache with no
	// public-key operation at all.
	MemoHits int64
	// Fallbacks counts per-item re-verifications run because a deduped
	// group's check failed and the item's own signed message differs from
	// the group's (a digest collision). Items that repeat the failed check
	// byte for byte are rejected without one.
	Fallbacks int64
	// Accepted and Rejected count the verdicts delivered.
	Accepted int64
	Rejected int64
}

// AmortizationRatio returns Enqueued / Checks (0 before the first
// resolve). Above 1 means dedup and caching are paying for themselves.
func (t VerifyTotals) AmortizationRatio() float64 {
	if t.Checks == 0 {
		return 0
	}
	return float64(t.Enqueued) / float64(t.Checks)
}

// BatchVerifyQueue accumulates pending signature checks across packets
// and streams and resolves them in amortized passes. It is safe for
// concurrent use; verdict callbacks run outside the internal lock, in
// enqueue order on the resolving goroutine, and may re-enter the queue. A
// pass runs its distinct public-key checks on up to GOMAXPROCS goroutines
// (Verifier.Verify is safe for concurrent use); verdicts, totals and cache
// statistics are the same at any width. Callers own the resolve
// policy (threshold and deadline), exactly like BatchSigner's flush
// policy; the queue auto-resolves when maxPending checks accumulate so a
// missing deadline can only bound latency, not correctness.
type BatchVerifyQueue struct {
	mu      sync.Mutex
	max     int
	cache   *SigCache
	scratch VerifyScratch
	pending []pendingVerify
	totals  VerifyTotals

	// m mirrors totals into a registry (nil when unset); exported is the
	// watermark of totals already pushed, so each export adds deltas.
	m        *queueMetrics
	exported VerifyTotals
}

// queueMetrics holds the registry instruments SetMetrics exports into.
type queueMetrics struct {
	enqueued  *obs.Counter
	resolves  *obs.Counter
	checks    *obs.Counter
	memoHits  *obs.Counter
	fallbacks *obs.Counter
	accepted  *obs.Counter
	rejected  *obs.Counter
	pending   *obs.Gauge
}

// NewBatchVerifyQueue creates a queue that auto-resolves at maxPending
// accumulated checks (maxPending >= 1; 1 degenerates to immediate
// per-check verification). cache may be nil; sharing one SigCache between
// the queue and synchronous verifiers lets each settle checks the other
// already paid for.
func NewBatchVerifyQueue(maxPending int, cache *SigCache) (*BatchVerifyQueue, error) {
	if maxPending < 1 {
		return nil, fmt.Errorf("crypto: max pending %d must be >= 1", maxPending)
	}
	return &BatchVerifyQueue{max: maxPending, cache: cache}, nil
}

// MaxPending returns the auto-resolve threshold.
func (q *BatchVerifyQueue) MaxPending() int { return q.max }

// SetMetrics exports the queue's lifetime totals into reg (nil disables):
// counters verify.deferred_enqueued / _resolves / _checks / _cache_hits /
// _fallbacks / _accepted / _rejected mirror VerifyTotals, and gauge
// verify.pending_signature tracks how many checks sit parked awaiting a
// resolve pass.
func (q *BatchVerifyQueue) SetMetrics(reg *obs.Registry) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if reg == nil {
		q.m = nil
		return
	}
	q.m = &queueMetrics{
		enqueued:  reg.Counter("verify.deferred_enqueued"),
		resolves:  reg.Counter("verify.deferred_resolves"),
		checks:    reg.Counter("verify.deferred_checks"),
		memoHits:  reg.Counter("verify.deferred_cache_hits"),
		fallbacks: reg.Counter("verify.deferred_fallbacks"),
		accepted:  reg.Counter("verify.deferred_accepted"),
		rejected:  reg.Counter("verify.deferred_rejected"),
		pending:   reg.Gauge("verify.pending_signature"),
	}
	q.exportLocked()
}

// exportLocked pushes the totals accrued since the last export into the
// registry instruments. Caller holds q.mu.
func (q *BatchVerifyQueue) exportLocked() {
	if q.m == nil {
		return
	}
	cur, prev := q.totals, q.exported
	q.m.enqueued.Add(cur.Enqueued - prev.Enqueued)
	q.m.resolves.Add(cur.Resolves - prev.Resolves)
	q.m.checks.Add(cur.Checks - prev.Checks)
	q.m.memoHits.Add(cur.MemoHits - prev.MemoHits)
	q.m.fallbacks.Add(cur.Fallbacks - prev.Fallbacks)
	q.m.accepted.Add(cur.Accepted - prev.Accepted)
	q.m.rejected.Add(cur.Rejected - prev.Rejected)
	q.m.pending.Set(int64(len(q.pending)))
	q.exported = cur
}

// Cache returns the queue's shared signature cache (nil when caching is
// off), so synchronous verify paths can share it.
func (q *BatchVerifyQueue) Cache() *SigCache { return q.cache }

// Enqueue submits one signature check; done is invoked with the verdict
// when the queue resolves. content and sig are retained until then and
// must not be mutated. When the queue reaches the auto-resolve threshold
// it resolves before Enqueue returns (so done may run synchronously).
// Returns the number of checks still pending after the call.
func (q *BatchVerifyQueue) Enqueue(pub Verifier, content, sig []byte, done func(ok bool)) (int, error) {
	if done == nil {
		return 0, errors.New("crypto: nil verdict callback")
	}
	q.mu.Lock()
	q.totals.Enqueued++
	q.pending = append(q.pending, pendingVerify{pub: pub, content: content, sig: sig, done: done})
	if len(q.pending) < q.max {
		n := len(q.pending)
		q.exportLocked()
		q.mu.Unlock()
		return n, nil
	}
	items, verdicts := q.resolveLocked()
	q.exportLocked()
	q.mu.Unlock()
	deliverVerdicts(items, verdicts)
	return 0, nil
}

// Resolve settles every pending check now and returns how many verdicts
// were delivered. A no-op when nothing is pending.
func (q *BatchVerifyQueue) Resolve() int {
	q.mu.Lock()
	items, verdicts := q.resolveLocked()
	q.exportLocked()
	q.mu.Unlock()
	deliverVerdicts(items, verdicts)
	return len(items)
}

// Pending returns the number of checks awaiting resolution.
func (q *BatchVerifyQueue) Pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// Totals snapshots the lifetime counters.
func (q *BatchVerifyQueue) Totals() VerifyTotals {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.totals
}

// verifyGroup is one distinct underlying signature check and the pending
// items that reduce to it.
type verifyGroup struct {
	key     sigKey
	pub     Verifier // the plain key that signed msg
	msg     []byte   // the actually-signed message (root message for blobs)
	sig     []byte   // the plain / inner signature
	members []int    // indices into the pending slice
	strays  []int    // members whose own message differs from msg
}

// resolveLocked settles the pending queue in three phases. On the caller,
// in enqueue order: malformed checks fail fast, well-formed ones are grouped
// by underlying (pub, message, signature) check, and each group is looked
// up in the cache. On every core: the groups the cache missed are verified,
// once each. On the caller again, in enqueue order: passing checks are
// stored, a failed group re-verifies only its strays, and the totals are
// counted. Verdict callbacks are returned for the caller to run after
// unlocking.
func (q *BatchVerifyQueue) resolveLocked() ([]pendingVerify, []bool) {
	if len(q.pending) == 0 {
		return nil, nil
	}
	items := q.pending
	q.pending = nil
	verdicts := make([]bool, len(items))
	groups := make(map[sigKey]*verifyGroup)
	var order []*verifyGroup
	for i, it := range items {
		// The key decides, as VerifyCached does: a plain key refuses a
		// batch blob, a batch-capable one reduces it to its inner check.
		key, msg, sig, ok := q.scratch.underlying(it.pub, it.content, it.sig)
		switch {
		case !ok:
			continue // verdict stays false
		case key == nil:
			q.totals.Checks++
			verdicts[i] = it.pub.Verify(it.content, it.sig)
			continue
		}
		k := makeSigKey(key, msg, nil, sig)
		g, exists := groups[k]
		if !exists {
			// msg may point into q.scratch; copy so later reductions
			// cannot clobber it before the group is verified.
			g = &verifyGroup{key: k, pub: key, msg: append([]byte(nil), msg...), sig: sig}
			groups[k] = g
			order = append(order, g)
		} else if !bytes.Equal(msg, g.msg) {
			g.strays = append(g.strays, i)
		}
		g.members = append(g.members, i)
	}
	misses := order
	if q.cache != nil {
		misses = nil
		for _, g := range order {
			if !q.cache.seen(g.key) {
				misses = append(misses, g)
				continue
			}
			q.totals.MemoHits += int64(len(g.members))
			for _, i := range g.members {
				verdicts[i] = true
			}
		}
	}
	passed, _ := parallel.Map(0, misses, func(_ int, g *verifyGroup) (bool, error) {
		return g.pub.Verify(g.msg, g.sig), nil
	})
	for j, g := range misses {
		q.totals.Checks++
		if passed[j] {
			if q.cache != nil {
				q.cache.store(g.key)
			}
			for _, i := range g.members {
				verdicts[i] = true
			}
			continue
		}
		// The deduped check failed. A member with the group's key and
		// message repeats it exactly and stays rejected; a stray is a
		// different check, so it is verified on its own and a digest
		// collision can never reject an honest sibling.
		for _, i := range g.strays {
			q.totals.Checks++
			q.totals.Fallbacks++
			it := items[i]
			verdicts[i] = VerifyCached(q.cache, &q.scratch, it.pub, it.content, nil, it.sig)
		}
	}
	q.totals.Resolves++
	for _, ok := range verdicts {
		if ok {
			q.totals.Accepted++
		} else {
			q.totals.Rejected++
		}
	}
	return items, verdicts
}

func deliverVerdicts(items []pendingVerify, verdicts []bool) {
	for i, it := range items {
		it.done(verdicts[i])
	}
}
