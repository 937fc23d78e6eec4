package stream

import (
	"fmt"
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/packet"
	"mcauth/internal/scheme/authtree"
	"mcauth/internal/scheme/signeach"
	"mcauth/internal/verifier"
)

func fastPathQueue(t *testing.T, batch int) *crypto.BatchVerifyQueue {
	t.Helper()
	sig, err := crypto.NewSigCache(64)
	if err != nil {
		t.Fatal(err)
	}
	q, err := crypto.NewBatchVerifyQueue(batch, sig)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func setEnv(t *testing.T, r *Receiver, env verifier.Env) {
	t.Helper()
	if err := r.SetEnv(env); err != nil {
		t.Fatal(err)
	}
}

func authtreeBlock(t *testing.T, s *authtree.Tree, blockID uint64, n int) []*packet.Packet {
	t.Helper()
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = fmt.Appendf(nil, "blk%d-msg-%02d", blockID, i)
	}
	pkts, err := s.Authenticate(blockID, payloads)
	if err != nil {
		t.Fatal(err)
	}
	return pkts
}

// TestDeferredLateSignature: with a batch queue attached, ingest parks
// packets pending-signature instead of verifying inline; nothing is
// authenticated until Resolve runs, and afterwards DrainDeferred hands
// back every payload with the totals reconciled.
func TestDeferredLateSignature(t *testing.T) {
	const n = 6
	s, err := signeach.New(n, crypto.NewSignerFromString("late-signature"))
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	q := fastPathQueue(t, 64) // batch larger than the block: nothing auto-resolves
	rcv.SetBatchVerify(q)

	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = fmt.Appendf(nil, "deferred-%02d", i)
	}
	pkts, err := s.Authenticate(1, payloads)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		events, err := rcv.Ingest(p, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if len(events) != 0 {
			t.Fatalf("packet %d verified inline; want parked pending signature", p.Index)
		}
	}
	tot := rcv.Totals()
	if tot.Authenticated != 0 || tot.PendingSignature != n {
		t.Fatalf("before resolve: Authenticated=%d PendingSignature=%d, want 0/%d",
			tot.Authenticated, tot.PendingSignature, n)
	}
	if got := rcv.DrainDeferred(); len(got) != 0 {
		t.Fatalf("drained %d verdicts before resolve", len(got))
	}

	q.Resolve()
	auths := rcv.DrainDeferred()
	if len(auths) != n {
		t.Fatalf("drained %d authenticated payloads after resolve, want %d", len(auths), n)
	}
	seen := make(map[string]bool)
	for _, a := range auths {
		seen[string(a.Payload)] = true
	}
	for i := range payloads {
		if !seen[string(payloads[i])] {
			t.Errorf("payload %d missing from deferred verdicts", i)
		}
	}
	tot = rcv.Totals()
	if tot.Authenticated != n || tot.PendingSignature != 0 || tot.Rejected != 0 {
		t.Errorf("after resolve: totals %+v, want %d authenticated, 0 pending, 0 rejected", tot, n)
	}
}

// TestDeferredFailedBatchFallsBack: authtree packets of one block share
// the root signature, so the whole block resolves as one batched check.
// When the packet that carried the group's signature bytes is corrupted,
// the batch verdict fails and every parked packet must be re-checked
// individually — the genuine ones recover, only the corrupt one is
// rejected. A forged packet must never ride a failed batch to
// acceptance, and genuine packets must never be collateral damage.
func TestDeferredFailedBatchFallsBack(t *testing.T) {
	const n = 8
	s, err := authtree.New(n, crypto.NewSignerFromString("failed-batch"))
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := NewReceiver(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	q := fastPathQueue(t, 256)
	rcv.SetBatchVerify(q)

	pkts := authtreeBlock(t, s, 1, n)
	// Corrupt the first-ingested packet's signature: it is the one whose
	// bytes the queued group check uses, so the group verdict fails.
	pkts[0].Signature = append([]byte(nil), pkts[0].Signature...)
	pkts[0].Signature[5] ^= 0x40
	for _, p := range pkts {
		if _, err := rcv.Ingest(p, time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	q.Resolve()
	auths := rcv.DrainDeferred()
	if len(auths) != n-1 {
		t.Fatalf("fallback recovered %d packets, want %d", len(auths), n-1)
	}
	for _, a := range auths {
		if a.Index == pkts[0].Index {
			t.Fatalf("packet with corrupted signature was authenticated")
		}
	}
	tot := rcv.Totals()
	if tot.Authenticated != n-1 || tot.Rejected != 1 || tot.PendingSignature != 0 {
		t.Errorf("totals %+v, want %d authenticated / 1 rejected / 0 pending", tot, n-1)
	}
}

// TestSharedCacheAcrossReceivers: the Demux fan-out shape — a second
// subscriber ingesting the same wire packets skips re-proving digests
// the first subscriber already verified, and the hits surface in its
// totals. A tampered twin of a cached packet still fails.
func TestSharedCacheAcrossReceivers(t *testing.T) {
	const n = 8
	s, err := authtree.New(n, crypto.NewSignerFromString("shared-cache"))
	if err != nil {
		t.Fatal(err)
	}
	cache, err := verifier.NewSharedCache(256)
	if err != nil {
		t.Fatal(err)
	}
	pkts := authtreeBlock(t, s, 1, n)

	ingestAll := func(rcv *Receiver, pkts []*packet.Packet) int {
		t.Helper()
		authed := 0
		for _, p := range pkts {
			events, err := rcv.Ingest(p, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			authed += len(events)
		}
		return authed
	}

	first, err := NewReceiver(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	setEnv(t, first, verifier.Env{Cache: cache, StreamID: 7})
	if got := ingestAll(first, pkts); got != n {
		t.Fatalf("first subscriber authenticated %d, want %d", got, n)
	}
	if first.Totals().CacheHits != 0 {
		t.Errorf("first subscriber hit the cache it was populating: %+v", first.Totals())
	}

	second, err := NewReceiver(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	setEnv(t, second, verifier.Env{Cache: cache, StreamID: 7})
	if got := ingestAll(second, pkts); got != n {
		t.Fatalf("second subscriber authenticated %d, want %d", got, n)
	}
	if hits := second.Totals().CacheHits; hits == 0 {
		t.Errorf("second subscriber never hit the shared cache")
	}

	// A tampered twin misses the cache and is rejected, not accepted.
	forged := *pkts[1]
	forged.Payload = append([]byte(nil), forged.Payload...)
	forged.Payload[0] ^= 0x01
	third, err := NewReceiver(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	setEnv(t, third, verifier.Env{Cache: cache, StreamID: 7})
	if _, err := third.Ingest(pkts[0], time.Time{}); err != nil {
		t.Fatal(err)
	}
	events, err := third.Ingest(&forged, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatal("tampered packet authenticated via shared cache")
	}
	if third.Totals().Rejected == 0 {
		t.Error("tampered packet not counted rejected")
	}
}

// TestSyncAndDeferredEventsInOneIngest: a block verifier's events live in
// its own buffer, reused by its next Ingest, Reset or deferred verdict, and
// the receiver recycles retired verifiers. With one live block, each block's
// first packet (proven in the shared cache) authenticates synchronously in
// the same Ingest that evicts the previous block, whose parked signature is
// then resolved and cascades through the block's held packets. Both sets of
// messages must come out of that Ingest with their own payloads, and stay so
// while the recycled verifiers serve the blocks after.
func TestSyncAndDeferredEventsInOneIngest(t *testing.T) {
	const n, blocks = 6, 5
	s := emssScheme(t, n) // the signature packet is the last one
	cache, err := verifier.NewSharedCache(64)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingScheme{Scheme: s}
	rcv, err := NewReceiver(rec, 1)
	if err != nil {
		t.Fatal(err)
	}
	setEnv(t, rcv, verifier.Env{Cache: cache, BatchQ: fastPathQueue(t, 1<<10)})

	payload := func(b uint64, i uint32) string { return fmt.Sprintf("b%d-m%d", b, i) }
	var outs [][]Authenticated
	for b := uint64(0); b < blocks; b++ {
		payloads := make([][]byte, n)
		for i := range payloads {
			payloads[i] = []byte(payload(b, uint32(i+1)))
		}
		pkts, err := s.Authenticate(b, payloads)
		if err != nil {
			t.Fatal(err)
		}
		cache.MarkAuthentic(0, b, cache.DigestOf(pkts[0]))
		for _, p := range pkts {
			out, err := rcv.Ingest(p, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, out)
		}
	}
	rcv.CloseBlock(blocks - 1)
	outs = append(outs, rcv.DrainDeferred())

	got := make(map[uint64]int)
	for k, out := range outs {
		sync, deferred := 0, 0
		for _, a := range out {
			if want := payload(a.BlockID, a.Index); string(a.Payload) != want {
				t.Fatalf("output %d: block %d index %d carries %q, want %q", k, a.BlockID, a.Index, a.Payload, want)
			}
			got[a.BlockID]++
			if a.Index == 1 {
				sync++
			} else {
				deferred++
			}
		}
		// Output k*n, the first packet of block k > 0, carries both.
		if k%n == 0 && k > 0 && k < blocks*n && (sync != 1 || deferred != n-1) {
			t.Fatalf("first packet of block %d: %d synchronous and %d deferred messages, want 1 and %d", k/n, sync, deferred, n-1)
		}
	}
	for b := uint64(0); b < blocks; b++ {
		if got[b] != n {
			t.Errorf("block %d: %d messages, want %d", b, got[b], n)
		}
	}
	if len(rec.handed) != 2 {
		t.Errorf("%d blocks through one live slot built %d verifiers, want 2 (the live one and the spare)", blocks, len(rec.handed))
	}
}

// TestParkedVerifierIsNotRecycled: a retired verifier whose signature is
// still parked — on a queue the receiver no longer resolves — is dropped,
// not reset for the next block, where its verdict would land.
func TestParkedVerifierIsNotRecycled(t *testing.T) {
	s, err := signeach.New(2, crypto.NewSignerFromString("parked-spare"))
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingScheme{Scheme: s}
	rcv, err := NewReceiver(rec, 1)
	if err != nil {
		t.Fatal(err)
	}
	old := fastPathQueue(t, 1<<10)
	rcv.SetBatchVerify(old)
	blockOf := func(id uint64) []*packet.Packet {
		pkts, err := s.Authenticate(id, [][]byte{{byte(id)}, {byte(id)}})
		if err != nil {
			t.Fatal(err)
		}
		return pkts
	}
	if _, err := rcv.Ingest(blockOf(0)[0], time.Time{}); err != nil {
		t.Fatal(err)
	}
	rcv.SetBatchVerify(fastPathQueue(t, 1<<10))
	for b := uint64(1); b <= 3; b++ {
		if _, err := rcv.Ingest(blockOf(b)[0], time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	// Block 0's verifier retired parked; block 1's retired clean (its
	// verdict resolved on the current queue) and served block 3.
	if len(rec.handed) != 3 || len(rec.served) != 1 {
		t.Fatalf("built %d verifiers and reset %d times, want 3 and 1", len(rec.handed), len(rec.served))
	}
	old.Resolve()
	if st := rec.handed[0].Stats(); st.Authenticated != 1 || st.PendingSignature != 0 {
		t.Fatalf("block 0's verifier after its queue resolved: %+v", st)
	}
}
