package crypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"mcauth/internal/obs"
)

// TestMACScratchMatchesHMAC cross-checks the flat-buffer HMAC against the
// stdlib implementation across the RFC 2104 key-length regimes.
func TestMACScratchMatchesHMAC(t *testing.T) {
	var s MACScratch
	keyLens := []int{0, 1, 16, 32, 63, 64, 65, 128, 200}
	dataLens := []int{0, 1, 55, 64, 100, 1000}
	for _, kl := range keyLens {
		for _, dl := range dataLens {
			key := bytes.Repeat([]byte{byte(kl + 1)}, kl)
			data := bytes.Repeat([]byte{byte(dl + 7)}, dl)
			m := hmac.New(sha256.New, key)
			m.Write(data)
			want := m.Sum(nil)
			got := s.Sum(key, data)
			if !bytes.Equal(got[:], want) {
				t.Fatalf("MACScratch.Sum(key %d, data %d) diverges from MAC", kl, dl)
			}
			if !s.Verify(key, data, want) {
				t.Fatalf("MACScratch.Verify rejects genuine MAC (key %d, data %d)", kl, dl)
			}
			want[0] ^= 1
			if s.Verify(key, data, want) {
				t.Fatalf("MACScratch.Verify accepts corrupted MAC (key %d, data %d)", kl, dl)
			}
		}
	}
}

// TestHashScratchMatchesHashConcat checks the flat-buffer concatenation
// hash against SHA-256 of the joined parts.
func TestHashScratchMatchesHashConcat(t *testing.T) {
	var s HashScratch
	parts := [][]byte{[]byte("alpha"), {}, []byte("beta"), bytes.Repeat([]byte{9}, 500)}
	want := Digest(sha256.Sum256(bytes.Join(parts, nil)))
	for _, p := range parts {
		s.Write(p)
	}
	if got := s.Sum(); got != want {
		t.Fatalf("HashScratch.Sum diverges from SHA-256 of the concatenation")
	}
	// Sum resets: a second round must match a fresh concatenation.
	s.Write([]byte("gamma"))
	if got, want := s.Sum(), HashBytes([]byte("gamma")); got != want {
		t.Fatalf("HashScratch did not reset after Sum")
	}
}

// TestKeychainIntoMatchesLegacy checks the Into key-chain derivations
// against the allocating oracles.
func TestKeychainIntoMatchesLegacy(t *testing.T) {
	keys, err := keyChain([]byte("into-seed"), 40)
	if err != nil {
		t.Fatal(err)
	}
	var s MACScratch
	k30 := keys[30]
	for target := 0; target < 30; target += 7 {
		want, err := recoverEarlierKey(k30, 30, target)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, KeySize)
		if err := RecoverEarlierKeyInto(&s, got, k30, 30, target); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("RecoverEarlierKeyInto(30 -> %d) diverges", target)
		}
	}
	// Aliased in-place recovery.
	aliased := append([]byte(nil), k30...)
	if err := RecoverEarlierKeyInto(&s, aliased, aliased, 30, 5); err != nil {
		t.Fatal(err)
	}
	want, _ := recoverEarlierKey(k30, 30, 5)
	if !bytes.Equal(aliased, want) {
		t.Fatalf("aliased RecoverEarlierKeyInto diverges")
	}
	if err := RecoverEarlierKeyInto(&s, aliased, k30, 30, 30); err == nil {
		t.Fatalf("RecoverEarlierKeyInto accepted target >= from")
	}
	mk := make([]byte, KeySize)
	DeriveMACKeyInto(&s, mk, k30)
	if !bytes.Equal(mk, deriveMACKey(k30)) {
		t.Fatalf("DeriveMACKeyInto diverges from its oracle")
	}
}

// TestVerifyCachedPlainAndBlob checks cached verification under a
// batch-capable key against the uncached paths for both signature forms,
// and that hits skip the public-key operation.
func TestVerifyCachedPlainAndBlob(t *testing.T) {
	signer := NewSignerFromString("vac")
	pub := BatchCapable(signer).Public()
	cache, err := NewSigCache(64)
	if err != nil {
		t.Fatal(err)
	}
	var scratch VerifyScratch

	msg := []byte("plain message")
	sig := signer.Sign(msg)
	for round := 0; round < 3; round++ {
		if !VerifyCached(cache, &scratch, pub, msg, nil, sig) {
			t.Fatalf("round %d: genuine plain signature rejected", round)
		}
	}
	st := cache.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("plain sig cache stats = %+v, want 2 hits / 1 miss", st)
	}

	contents := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d"), []byte("e")}
	blobs, err := BatchSign(signer, contents)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range contents {
		if !VerifyCached(cache, &scratch, pub, c, nil, blobs[i]) {
			t.Fatalf("blob %d rejected", i)
		}
		if !verifyBatchBlob(signer.Public(), c, blobs[i]) {
			t.Fatalf("blob %d rejected by legacy path", i)
		}
	}
	// All five blobs share one inner signature: one miss, four hits.
	st = cache.Stats()
	if st.Misses != 2 {
		t.Fatalf("after blob batch: misses = %d, want 2 (one per distinct check)", st.Misses)
	}

	// Cross-content forgery: a valid blob must not authenticate other
	// content, cached or not.
	if VerifyCached(cache, &scratch, pub, []byte("z"), nil, blobs[0]) {
		t.Fatalf("blob accepted for wrong content")
	}
	// Corrupted inner signature never caches.
	bad := append([]byte(nil), blobs[1]...)
	bad[9] ^= 1
	for round := 0; round < 2; round++ {
		if VerifyCached(cache, &scratch, pub, contents[1], nil, bad) {
			t.Fatalf("round %d: corrupted blob accepted", round)
		}
	}
	// Wrong-key plain signature never caches.
	otherPub := NewSignerFromString("vac-other").Public()
	for round := 0; round < 2; round++ {
		if VerifyCached(cache, &scratch, otherPub, msg, nil, sig) {
			t.Fatalf("round %d: signature accepted under wrong key", round)
		}
	}
	// Nil cache and nil scratch still verify correctly.
	if !VerifyCached(nil, nil, pub, msg, nil, sig) {
		t.Fatalf("nil-cache verify rejected genuine signature")
	}
}

// TestVerifyCachedMatchesVerify pins VerifyCached, and the batch-verify
// queue's deferred verdict, to pub.Verify: every key kind against every
// signature shape, with the cache nil, cold and warm, and with a failed check
// never stored. The plain key's refusal of a valid batch
// blob is the rule every verifier and the batch-verify queue follow.
func TestVerifyCachedMatchesVerify(t *testing.T) {
	signer := NewSignerFromString("vc")
	content := []byte("signed content")
	plainSig := signer.Sign(content)
	blobs, err := BatchSign(signer, [][]byte{[]byte("sibling"), content, []byte("other")})
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), content...)
	tampered[0] ^= 1
	keys := []struct {
		name string
		pub  Verifier
	}{
		{"plain", signer.Public()},
		{"batch", BatchCapable(signer).Public()},
		{"wrong-plain", NewSignerFromString("vc-other").Public()},
		{"wrong-batch", BatchCapable(NewSignerFromString("vc-other")).Public()},
	}
	sigs := []struct {
		name    string
		content []byte
		sig     []byte
	}{
		{"valid-plain", content, plainSig},
		{"valid-blob", content, blobs[1]},
		{"truncated-plain", content, plainSig[:signatureSize-1]},
		{"truncated-blob", content, blobs[1][:len(blobs[1])-1]},
		{"empty", content, nil},
		{"tampered-content-plain", tampered, plainSig},
		{"tampered-content-blob", tampered, blobs[1]},
		{"sibling-blob", content, blobs[0]},
	}
	for _, k := range keys {
		for _, sg := range sigs {
			want := k.pub.Verify(sg.content, sg.sig)
			cache, err := NewSigCache(8)
			if err != nil {
				t.Fatal(err)
			}
			var scratch VerifyScratch
			for _, c := range []struct {
				name    string
				cache   *SigCache
				scratch *VerifyScratch
			}{{"nil", nil, nil}, {"cold", cache, &scratch}, {"warm", cache, &scratch}} {
				if got := VerifyCached(c.cache, c.scratch, k.pub, sg.content, nil, sg.sig); got != want {
					t.Errorf("%s key, %s, %s cache: VerifyCached = %v, Verify = %v", k.name, sg.name, c.name, got, want)
				}
			}
			stored := 0
			if want {
				stored = 1
			}
			if cache.Len() != stored {
				t.Errorf("%s key, %s: cache holds %d checks, want %d", k.name, sg.name, cache.Len(), stored)
			}
			if st := cache.Stats(); want && (st.Hits != 1 || st.Misses != 1) {
				t.Errorf("%s key, %s: stats %+v, want the warm lookup to hit", k.name, sg.name, st)
			}
			for _, qc := range []*SigCache{nil, cache} {
				q, err := NewBatchVerifyQueue(1, qc)
				if err != nil {
					t.Fatal(err)
				}
				queued := !want
				if _, err := q.Enqueue(k.pub, sg.content, sg.sig, func(ok bool) { queued = ok }); err != nil {
					t.Fatal(err)
				}
				if queued != want {
					t.Errorf("%s key, %s, queue cache %v: deferred verdict %v, Verify = %v", k.name, sg.name, qc != nil, queued, want)
				}
			}
		}
	}
}

// TestSigCacheRotation checks the two-generation bound: the cache never
// exceeds 2*max entries and old entries are evicted, not hit.
func TestSigCacheRotation(t *testing.T) {
	cache, err := NewSigCache(8)
	if err != nil {
		t.Fatal(err)
	}
	var k sigKey
	for i := 0; i < 100; i++ {
		k.msg[0], k.msg[1] = byte(i), byte(i>>8)
		cache.store(k)
		if n := cache.Len(); n > 16 {
			t.Fatalf("after %d inserts cache holds %d > 2*max entries", i+1, n)
		}
	}
	if cache.Stats().Evicted == 0 {
		t.Fatalf("100 inserts into a 8-entry cache evicted nothing")
	}
	// The newest entry is present; the oldest was rotated out.
	k.msg[0], k.msg[1] = 99, 0
	if !cache.seen(k) {
		t.Fatalf("newest entry missing")
	}
	k.msg[0], k.msg[1] = 0, 0
	if cache.seen(k) {
		t.Fatalf("oldest entry survived 100 inserts")
	}
}

// TestBatchVerifyQueueDedup checks that identical underlying checks are
// verified once and verdicts are delivered in enqueue order.
func TestBatchVerifyQueueDedup(t *testing.T) {
	signer := NewSignerFromString("bvq")
	pub := signer.Public()
	cache, _ := NewSigCache(64)
	q, err := NewBatchVerifyQueue(100, cache)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("shared root message")
	sig := signer.Sign(msg)
	var got []bool
	for i := 0; i < 10; i++ {
		if _, err := q.Enqueue(pub, msg, sig, func(ok bool) { got = append(got, ok) }); err != nil {
			t.Fatal(err)
		}
	}
	if n := q.Resolve(); n != 10 {
		t.Fatalf("Resolve settled %d checks, want 10", n)
	}
	if len(got) != 10 {
		t.Fatalf("got %d verdicts, want 10", len(got))
	}
	for i, ok := range got {
		if !ok {
			t.Fatalf("verdict %d is reject, want accept", i)
		}
	}
	tot := q.Totals()
	if tot.Checks != 1 {
		t.Fatalf("10 identical checks ran %d public-key ops, want 1", tot.Checks)
	}
	if r := tot.AmortizationRatio(); r != 10 {
		t.Fatalf("amortization ratio = %g, want 10", r)
	}

	// A second round of the same check settles entirely from the cache.
	q.Enqueue(pub, msg, sig, func(bool) {})
	q.Resolve()
	if tot := q.Totals(); tot.Checks != 1 || tot.MemoHits != 1 {
		t.Fatalf("cached re-check totals = %+v, want no new checks and 1 cache hit", tot)
	}
}

// TestBatchVerifyQueueFallback checks that a forged signature is isolated
// without poisoning good ones, and costs one check, not two.
func TestBatchVerifyQueueFallback(t *testing.T) {
	signer := NewSignerFromString("bvq-fb")
	pub := signer.Public()
	q, err := NewBatchVerifyQueue(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	good := []byte("good message")
	goodSig := signer.Sign(good)
	badSig := append([]byte(nil), goodSig...)
	badSig[3] ^= 1

	verdicts := make(map[string]bool)
	q.Enqueue(pub, good, goodSig, func(ok bool) { verdicts["good1"] = ok })
	q.Enqueue(pub, good, badSig, func(ok bool) { verdicts["bad"] = ok })
	q.Enqueue(pub, good, goodSig, func(ok bool) { verdicts["good2"] = ok })
	q.Resolve()
	if !verdicts["good1"] || !verdicts["good2"] {
		t.Fatalf("good signatures rejected: %+v", verdicts)
	}
	if verdicts["bad"] {
		t.Fatalf("forged signature accepted")
	}
	// The forged member repeats its group's failed check byte for byte, so
	// it is rejected without a second one: one check per distinct signature.
	tot := q.Totals()
	if tot.Fallbacks != 0 || tot.Checks != 2 {
		t.Fatalf("Fallbacks = %d, Checks = %d; want 0 and 2 (one check per group)", tot.Fallbacks, tot.Checks)
	}
	if tot.Accepted != 2 || tot.Rejected != 1 {
		t.Fatalf("totals = %+v, want 2 accepted / 1 rejected", tot)
	}
}

// TestBatchVerifyQueueAutoResolve checks the threshold-triggered resolve
// and that blob checks reduce to their shared inner signature.
func TestBatchVerifyQueueAutoResolve(t *testing.T) {
	signer := NewSignerFromString("bvq-auto")
	pub := BatchCapable(signer).Public()
	contents := make([][]byte, 8)
	for i := range contents {
		contents[i] = []byte(fmt.Sprintf("content-%d", i))
	}
	blobs, err := BatchSign(signer, contents)
	if err != nil {
		t.Fatal(err)
	}
	q, err := NewBatchVerifyQueue(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	settled := 0
	for i := range contents {
		pending, err := q.Enqueue(pub, contents[i], blobs[i], func(ok bool) {
			if !ok {
				t.Errorf("blob verdict reject")
			}
			settled++
		})
		if err != nil {
			t.Fatal(err)
		}
		if i < 7 && pending != i+1 {
			t.Fatalf("pending = %d after %d enqueues", pending, i+1)
		}
	}
	if settled != 8 {
		t.Fatalf("auto-resolve settled %d, want 8", settled)
	}
	if tot := q.Totals(); tot.Checks != 1 {
		t.Fatalf("8 blobs of one batch ran %d public-key ops, want 1", tot.Checks)
	}
}

// TestBatchVerifyQueueWorkerInvariant runs one seeded mix of checks — good,
// forged and wrong-key plain signatures, blobs from three batch flushes, one
// blob with a forged Merkle path, malformed blobs, and duplicates of all of
// them — through two resolve passes, the second over a cache the first
// warmed, at GOMAXPROCS 1, 2 and 8. The parallel verify phase must not show:
// the verdict sequence, the queue totals and the cache counters are the
// same at every width, every verdict is the key's own, and every public-key
// operation is one the totals count.
func TestBatchVerifyQueueWorkerInvariant(t *testing.T) {
	signer := NewSignerFromString("bvq-workers")
	other := NewSignerFromString("bvq-workers-other")
	type check struct{ content, sig []byte }
	var pool []check
	for i := 0; i < 24; i++ {
		msg := []byte(fmt.Sprintf("plain-%d", i))
		sig := signer.Sign(msg)
		pool = append(pool, check{msg, sig})
		switch i % 4 {
		case 1:
			forged := append([]byte(nil), sig...)
			forged[i%signatureSize] ^= 1
			pool = append(pool, check{msg, forged})
		case 2:
			pool = append(pool, check{msg, other.Sign(msg)})
		}
	}
	for flush := 0; flush < 3; flush++ {
		contents := make([][]byte, 12+flush)
		for i := range contents {
			contents[i] = []byte(fmt.Sprintf("flush-%d-%d", flush, i))
		}
		blobs, err := BatchSign(signer, contents)
		if err != nil {
			t.Fatal(err)
		}
		for i := range contents {
			pool = append(pool, check{contents[i], blobs[i]})
		}
		if flush == 0 {
			badPath := append([]byte(nil), blobs[3]...)
			badPath[len(badPath)-HashSize+1] ^= 1
			truncated := blobs[4][:len(blobs[4])-1]
			badTag := append([]byte{0}, blobs[5][1:]...)
			pool = append(pool, check{contents[3], badPath}, check{contents[4], truncated},
				check{contents[5], badTag}, check{contents[6], nil})
		}
	}
	key := BatchCapable(signer).Public()
	// The first pass draws 80 checks at random; the second holds every
	// check of the pool once, shuffled into random duplicates.
	rng := rand.New(rand.NewSource(37))
	first := make([]int, 80)
	for i := range first {
		first[i] = rng.Intn(len(pool))
	}
	second := rng.Perm(len(pool))
	for len(second) < 160 {
		second = append(second, second[rng.Intn(len(second))])
	}
	rng.Shuffle(len(second), func(i, j int) { second[i], second[j] = second[j], second[i] })
	draws := append(first[:len(first):len(first)], second...)

	type run struct {
		verdicts []bool
		totals   VerifyTotals
		stats    SigCacheStats
		ops      int64
	}
	resolve := func(procs int) run {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cache, err := NewSigCache(1 << 10)
		if err != nil {
			t.Fatal(err)
		}
		q, err := NewBatchVerifyQueue(1<<20, cache)
		if err != nil {
			t.Fatal(err)
		}
		counting := &countingVerifier{Verifier: signer.Public()}
		pub := newBatchVerifier(counting)
		var r run
		for _, pass := range [][]int{first, second} {
			for _, d := range pass {
				c := pool[d]
				if _, err := q.Enqueue(pub, c.content, c.sig, func(ok bool) { r.verdicts = append(r.verdicts, ok) }); err != nil {
					t.Fatal(err)
				}
			}
			q.Resolve()
		}
		r.totals, r.stats, r.ops = q.Totals(), cache.Stats(), counting.ops.Load()
		return r
	}

	base := resolve(1)
	for i, d := range draws {
		if want := key.Verify(pool[d].content, pool[d].sig); base.verdicts[i] != want {
			t.Fatalf("check %d (pool %d): verdict %v, the key says %v", i, d, base.verdicts[i], want)
		}
	}
	if base.ops != base.totals.Checks || base.totals.MemoHits == 0 || base.totals.Rejected == 0 ||
		base.totals.Checks >= base.totals.Enqueued {
		t.Fatalf("GOMAXPROCS 1: %d public-key operations, totals %+v; want as many operations as checks, cache hits, rejections and dedup", base.ops, base.totals)
	}
	for _, procs := range []int{2, 8} {
		got := resolve(procs)
		if !slices.Equal(got.verdicts, base.verdicts) {
			t.Errorf("GOMAXPROCS %d: verdict sequence differs from GOMAXPROCS 1", procs)
		}
		if got.totals != base.totals || got.stats != base.stats || got.ops != base.ops {
			t.Errorf("GOMAXPROCS %d: totals %+v, cache %+v, %d operations; GOMAXPROCS 1: %+v, %+v, %d",
				procs, got.totals, got.stats, got.ops, base.totals, base.stats, base.ops)
		}
	}
}

// TestSigCacheConcurrent hammers one cache from many goroutines under the
// race detector.
func TestSigCacheConcurrent(t *testing.T) {
	cache, _ := NewSigCache(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var k sigKey
			for i := 0; i < 200; i++ {
				k.msg[0], k.msg[1] = byte(i), byte(g)
				if i%2 == 0 {
					cache.store(k)
				} else {
					cache.seen(k)
				}
			}
		}(g)
	}
	wg.Wait()
	if cache.Len() > 64 {
		t.Fatalf("cache exceeded bound: %d", cache.Len())
	}
}

// countingVerifier counts the public-key operations that reach it. The
// count is atomic, so it is safe for concurrent use as Verifier requires.
type countingVerifier struct {
	Verifier
	ops atomic.Int64
}

func (v *countingVerifier) Verify(data, sig []byte) bool {
	v.ops.Add(1)
	return v.Verifier.Verify(data, sig)
}

// TestSigCacheConcurrentFirstLookups releases many goroutines onto one cold
// cache with the same check, as netsim's workers do with a block's signature
// packet: a valid signature costs one public-key operation however they
// interleave, a forged one costs each caller its own, and the counters read
// the same as if the calls had come one after another.
func TestSigCacheConcurrentFirstLookups(t *testing.T) {
	const callers = 16
	signer := NewSignerFromString("first-lookups")
	msg := []byte("signature packet content")
	good := signer.Sign(msg)
	bad := append([]byte(nil), good...)
	bad[0] ^= 1
	for _, tc := range []struct {
		name             string
		sig              []byte
		want             bool
		ops, hit, stored int64
	}{
		{"valid", good, true, 1, callers - 1, 1},
		{"forged", bad, false, callers, 0, 0},
	} {
		cache, err := NewSigCache(4)
		if err != nil {
			t.Fatal(err)
		}
		pub := &countingVerifier{Verifier: signer.Public()}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				// A batch-capable key: VerifyCached caches its checks and
				// runs them on the counting inner key.
				if got := VerifyCached(cache, nil, newBatchVerifier(pub), msg, nil, tc.sig); got != tc.want {
					t.Errorf("%s signature: verdict %v", tc.name, got)
				}
			}()
		}
		close(start)
		wg.Wait()
		st := cache.Stats()
		if pub.ops.Load() != tc.ops || st.Hits != tc.hit || st.Misses != callers-tc.hit || int64(cache.Len()) != tc.stored {
			t.Errorf("%s signature, %d concurrent callers: %d public-key operations, stats %+v, %d stored; want %d operations, %d hits, %d stored",
				tc.name, callers, pub.ops.Load(), st, cache.Len(), tc.ops, tc.hit, tc.stored)
		}
	}
}

// TestBatchVerifyQueueSetMetrics checks that lifetime totals and the
// pending depth are mirrored into registry instruments.
func TestBatchVerifyQueueSetMetrics(t *testing.T) {
	signer := NewSignerFromString("bvq-metrics")
	pub := signer.Public()
	q, err := NewBatchVerifyQueue(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	q.SetMetrics(reg)

	msg := []byte("metrics message")
	sig := signer.Sign(msg)
	for i := 0; i < 3; i++ {
		if _, err := q.Enqueue(pub, msg, sig, func(bool) {}); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Gauge("verify.pending_signature").Value(); got != 3 {
		t.Fatalf("pending_signature = %d before resolve, want 3", got)
	}
	if got := reg.Counter("verify.deferred_enqueued").Value(); got != 3 {
		t.Fatalf("deferred_enqueued = %d, want 3", got)
	}
	q.Resolve()
	if got := reg.Gauge("verify.pending_signature").Value(); got != 0 {
		t.Fatalf("pending_signature = %d after resolve, want 0", got)
	}
	if got := reg.Counter("verify.deferred_accepted").Value(); got != 3 {
		t.Fatalf("deferred_accepted = %d, want 3", got)
	}
	if got := reg.Counter("verify.deferred_checks").Value(); got != 1 {
		t.Fatalf("deferred_checks = %d, want 1 (deduped group)", got)
	}
	if got := reg.Counter("verify.deferred_resolves").Value(); got != 1 {
		t.Fatalf("deferred_resolves = %d, want 1", got)
	}

	// Late attachment catches up on totals accrued before SetMetrics.
	q2, _ := NewBatchVerifyQueue(100, nil)
	q2.Enqueue(pub, msg, sig, func(bool) {})
	q2.Resolve()
	reg2 := obs.NewRegistry()
	q2.SetMetrics(reg2)
	if got := reg2.Counter("verify.deferred_enqueued").Value(); got != 1 {
		t.Fatalf("late-attach deferred_enqueued = %d, want 1", got)
	}

	// Detaching stops exports without disturbing the queue.
	q.SetMetrics(nil)
	if _, err := q.Enqueue(pub, msg, sig, func(bool) {}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("verify.deferred_enqueued").Value(); got != 3 {
		t.Fatalf("detached registry advanced to %d, want 3", got)
	}
}
