package stream

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/depgraph"
	"mcauth/internal/fault"
	"mcauth/internal/packet"
	"mcauth/internal/scheme"
	"mcauth/internal/scheme/authtree"
	"mcauth/internal/scheme/signeach"
	"mcauth/internal/stats"
	"mcauth/internal/verifier"
)

// countingScheme hands out verifiers that authenticate every packet on
// sight and count their Stats() calls in one shared counter: the probe for
// how often the receiver's accounting reads verifier state.
type countingScheme struct{ statsCalls *int }

func (countingScheme) Name() string   { return "counting" }
func (countingScheme) BlockSize() int { return 8 }
func (countingScheme) WireCount() int { return 8 }
func (countingScheme) Authenticate(uint64, [][]byte) ([]*packet.Packet, error) {
	return nil, errors.New("counting: receive-side stub")
}
func (countingScheme) Graph() (*depgraph.Graph, error) {
	return nil, errors.New("counting: receive-side stub")
}
func (c countingScheme) NewVerifier(verifier.Env) (scheme.Verifier, error) {
	return &countingVerifier{statsCalls: c.statsCalls}, nil
}

type countingVerifier struct {
	statsCalls *int
	st         verifier.Stats
}

func (v *countingVerifier) Ingest(p *packet.Packet, _ time.Time) ([]verifier.Event, error) {
	v.st.Received++
	v.st.Authenticated++
	return []verifier.Event{{Index: p.Index, Payload: p.Payload}}, nil
}

func (v *countingVerifier) Stats() verifier.Stats {
	*v.statsCalls++
	return v.st
}

func (v *countingVerifier) Reset(verifier.Env) error {
	v.st = verifier.Stats{}
	return nil
}

// TestAccountingReadsNoVerifierPerPacket is the count-based scaling guard:
// Ingest and DrainDeferred never call Verifier.Stats, however many blocks
// and streams are live; retirement reads the departing verifier once and
// Totals reads each live verifier once.
func TestAccountingReadsNoVerifierPerPacket(t *testing.T) {
	const packets = 8192
	for _, maxBlocks := range []int{4, 64} {
		for _, streams := range []int{1, 64} {
			t.Run(fmt.Sprintf("blocks=%d/streams=%d", maxBlocks, streams), func(t *testing.T) {
				calls := 0
				dmx, err := NewDemux(func(uint64) (*Receiver, error) {
					return NewReceiver(countingScheme{&calls}, maxBlocks)
				}, streams)
				if err != nil {
					t.Fatal(err)
				}
				dmx.SetVerifyFastPath(nil, fastPathQueue(t, 32))
				// One bare receiver beside the demux, fed the same way.
				bare, err := NewReceiver(countingScheme{&calls}, maxBlocks)
				if err != nil {
					t.Fatal(err)
				}
				bare.SetBatchVerify(fastPathQueue(t, 32))

				// Every stream cycles over exactly maxBlocks blocks, so
				// nothing retires.
				for i := 0; i < packets; i++ {
					p := &packet.Packet{BlockID: uint64(i / streams % maxBlocks), Index: 1}
					if _, err := dmx.Ingest(uint64(i%streams), p, time.Time{}); err != nil {
						t.Fatal(err)
					}
					dmx.DrainDeferred()
					if _, err := bare.Ingest(p, time.Time{}); err != nil {
						t.Fatal(err)
					}
					bare.DrainDeferred()
				}
				if calls != 0 {
					t.Fatalf("%d packets through Ingest+DrainDeferred made %d Stats() calls, want 0", packets, calls)
				}

				authed := 0
				for _, r := range append([]*Receiver{bare}, receiversOf(dmx)...) {
					before := calls
					tot := r.Totals()
					if got := calls - before; got != tot.ActiveBlocks {
						t.Fatalf("Totals() made %d Stats() calls over %d live verifiers", got, tot.ActiveBlocks)
					}
					if again := r.Totals(); !reflect.DeepEqual(again, tot) {
						t.Fatalf("Totals() changed the receiver: %+v then %+v", tot, again)
					}
					authed += tot.Authenticated
				}
				if authed != 2*packets {
					t.Fatalf("totals count %d authenticated, want %d", authed, 2*packets)
				}

				// One more block per receiver retires its oldest: exactly
				// one read each, of the departing verifier.
				calls = 0
				p := &packet.Packet{BlockID: uint64(maxBlocks), Index: 1}
				for id := 0; id < streams; id++ {
					if _, err := dmx.Ingest(uint64(id), p, time.Time{}); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := bare.Ingest(p, time.Time{}); err != nil {
					t.Fatal(err)
				}
				if calls != streams+1 {
					t.Fatalf("%d retirements made %d Stats() calls", streams+1, calls)
				}
			})
		}
	}
}

func receiversOf(d *Demux) []*Receiver {
	var out []*Receiver
	for _, id := range d.StreamIDs() {
		out = append(out, d.Receiver(id))
	}
	return out
}

// recordingScheme remembers every verifier it hands out, and the stats of
// every block one of them served before a Reset, so a test can sum them by
// brute force. The verifiers themselves are the real ones, built and reset
// with the environment the receiver asked for.
type recordingScheme struct {
	scheme.Scheme
	handed []scheme.Verifier
	served []verifier.Stats // a verifier's stats at each of its Resets
}

func (rs *recordingScheme) NewVerifier(env verifier.Env) (scheme.Verifier, error) {
	v, err := rs.Scheme.NewVerifier(env)
	if err != nil {
		return nil, err
	}
	rv := &recordingVerifier{Verifier: v, rs: rs}
	rs.handed = append(rs.handed, rv)
	return rv, nil
}

type recordingVerifier struct {
	scheme.Verifier
	rs *recordingScheme
}

func (rv *recordingVerifier) Reset(env verifier.Env) error {
	rv.rs.served = append(rv.rs.served, rv.Stats())
	return rv.Verifier.Reset(env)
}

// sum is the oracle: the per-verifier counters Totals reports, added over
// every block any verifier handed out served, live or retired.
func (rs *recordingScheme) sum() Totals {
	var t Totals
	all := slices.Clone(rs.served)
	for _, v := range rs.handed {
		all = append(all, v.Stats())
	}
	for _, st := range all {
		t.Authenticated += st.Authenticated
		t.Rejected += st.Rejected
		t.Unsafe += st.Unsafe
		t.Duplicates += st.Duplicates
		t.PendingSignature += st.PendingSignature
		t.TimeToAuth.Merge(st.TimeToAuth)
	}
	return t
}

// traceStep is one step of the differential trace: a packet to ingest, or
// (p == nil) a CloseBlock.
type traceStep struct {
	p     *packet.Packet
	close uint64
}

// accountingTrace builds one seeded trace of `blocks` blocks through 10 %
// loss, 10 % duplicates, 5 % wrong-key forgeries and a reorder window of
// two blocks. With maxBlocks = 4 at the receiver the early blocks are
// LRU-evicted; block 3 is closed by hand while live; at the end packets of
// evicted block 0 and closed block 3 arrive late, plus one out-of-range
// index the verifier refuses.
func accountingTrace(t *testing.T, s scheme.Scheme, blocks int, seed uint64) []traceStep {
	t.Helper()
	rng := stats.NewRNG(seed)
	forger := fault.NewWrongKeyForger("accounting")
	n := s.BlockSize()
	var steps []traceStep
	var late []*packet.Packet
	for b := 0; b < blocks; b++ {
		payloads := make([][]byte, n)
		for i := range payloads {
			payloads[i] = fmt.Appendf(nil, "b%d-m%d", b, i)
		}
		pkts, err := s.Authenticate(uint64(b), payloads)
		if err != nil {
			t.Fatal(err)
		}
		if b == 0 || b == 3 {
			late = append(late, pkts[0], pkts[len(pkts)-1])
		}
		for _, p := range pkts {
			if rng.Bernoulli(0.10) {
				continue
			}
			steps = append(steps, traceStep{p: p})
			if rng.Bernoulli(0.10) {
				steps = append(steps, traceStep{p: p})
			}
			if rng.Bernoulli(0.05) {
				steps = append(steps, traceStep{p: forger.Forge(rng, p)})
			}
		}
	}
	for i := range steps {
		j := i + rng.Intn(2*n)
		if j < len(steps) {
			steps[i], steps[j] = steps[j], steps[i]
		}
	}
	// Close block 3 halfway through block 4's packets: while it is live,
	// with some of its own packets still to come.
	for i, st := range steps {
		if st.p.BlockID == 4 {
			steps = append(steps[:i+1], append([]traceStep{{close: 3}}, steps[i+1:]...)...)
			break
		}
	}
	for _, p := range late {
		steps = append(steps, traceStep{p: p})
	}
	bad := *late[0]
	bad.BlockID, bad.Index = uint64(blocks-1), uint32(n+7)
	return append(steps, traceStep{p: &bad})
}

// TestTotalsMatchBruteForce is the differential test of the pull model: on
// one trace, in three receiver configurations, Totals() sampled at random
// points always equals the brute-force sum over every verifier handed out
// (nothing double-counted at retirement, nothing lost when v.Ingest
// errors), and the configurations agree on what the trace authenticated.
func TestTotalsMatchBruteForce(t *testing.T) {
	signer := crypto.NewSignerFromString("accounting")
	se, err := signeach.New(8, signer)
	if err != nil {
		t.Fatal(err)
	}
	at, err := authtree.New(8, signer)
	if err != nil {
		t.Fatal(err)
	}
	configs := []string{"plain", "queue-explicit", "queue-auto"}
	for _, s := range []scheme.Scheme{se, at, emssScheme(t, 8)} {
		t.Run(s.Name(), func(t *testing.T) {
			steps := accountingTrace(t, s, 14, 20260927)
			var finals []Totals
			for _, cfg := range configs {
				finals = append(finals, runAccounting(t, s, steps, cfg))
			}
			plain := finals[0]
			for i, f := range finals[1:] {
				// What the trace authenticated, and how many packets were
				// judged at all, must agree. These fields legitimately
				// differ: Rejected vs Duplicates, because a forged packet whose
				// parked verdict lands after its genuine twin authenticated
				// counts as a duplicate where the inline path rejected it on
				// arrival (their sum is invariant); TimeToAuth's sum and
				// buckets, because a deferred verdict authenticates later
				// than its packet arrived (its count is invariant).
				if f.Authenticated != plain.Authenticated || f.Packets != plain.Packets ||
					f.InvalidPackets != plain.InvalidPackets ||
					f.Rejected+f.Duplicates != plain.Rejected+plain.Duplicates ||
					f.TimeToAuth.Count != plain.TimeToAuth.Count {
					t.Errorf("%s ends at %+v\nplain ends at %+v", configs[i+1], f, plain)
				}
			}
			if finals[0].Authenticated == 0 || finals[0].InvalidPackets != 1 || finals[0].EvictedBlocks == 0 {
				t.Errorf("trace is vacuous: %+v", finals[0])
			}
		})
	}
}

// runAccounting replays steps into a fresh receiver of the named
// configuration, checks Totals() against the oracle at seeded random points
// and at the end, and returns the final totals.
func runAccounting(t *testing.T, s scheme.Scheme, steps []traceStep, cfg string) Totals {
	t.Helper()
	rec := &recordingScheme{Scheme: s}
	rcv, err := NewReceiver(rec, 4)
	if err != nil {
		t.Fatal(err)
	}
	var q *crypto.BatchVerifyQueue
	switch cfg {
	case "queue-explicit":
		q = fastPathQueue(t, 1<<20) // never fills: only Resolve settles
	case "queue-auto":
		q = fastPathQueue(t, 5)
	}
	if q != nil {
		rcv.SetBatchVerify(q)
	}
	delivered := 0
	check := func(where string) Totals {
		t.Helper()
		got, want := rcv.Totals(), rec.sum()
		if got.Authenticated != delivered {
			t.Fatalf("%s %s: Totals().Authenticated = %d, %d messages delivered", cfg, where, got.Authenticated, delivered)
		}
		perVerifier := Totals{
			Authenticated: got.Authenticated, Rejected: got.Rejected, Unsafe: got.Unsafe,
			Duplicates: got.Duplicates, PendingSignature: got.PendingSignature, TimeToAuth: got.TimeToAuth,
		}
		if perVerifier != want {
			t.Fatalf("%s %s: Totals() = %+v\nbrute-force sum over %d verifiers = %+v", cfg, where, perVerifier, len(rec.handed), want)
		}
		return got
	}
	sample := stats.NewRNG(7)
	base := time.Unix(1_700_000_000, 0)
	for i, st := range steps {
		if st.p == nil {
			rcv.CloseBlock(st.close)
		} else {
			auths, err := rcv.Ingest(st.p, base.Add(time.Duration(i)*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			delivered += len(auths)
		}
		if cfg == "queue-explicit" && i%7 == 0 {
			q.Resolve()
		}
		delivered += len(rcv.DrainDeferred())
		if sample.Bernoulli(0.25) {
			check(fmt.Sprintf("after step %d", i))
		}
	}
	if q != nil {
		q.Resolve()
		delivered += len(rcv.DrainDeferred())
	}
	end := check("at end of trace")
	if end.PendingSignature != 0 {
		t.Fatalf("%s: %d verdicts pending after the final resolve", cfg, end.PendingSignature)
	}
	return end
}

// TestRetirementSettlesParkedVerdicts: a block retired (evicted or closed)
// while its signature verdict is still parked resolves the queue first, so
// the verdict is delivered and counted instead of landing on a verifier
// nobody reads any more.
func TestRetirementSettlesParkedVerdicts(t *testing.T) {
	s, err := signeach.New(4, crypto.NewSignerFromString("retire-parked"))
	if err != nil {
		t.Fatal(err)
	}
	blockOf := func(id uint64) []*packet.Packet {
		pkts, err := s.Authenticate(id, [][]byte{{1}, {2}, {3}, {4}})
		if err != nil {
			t.Fatal(err)
		}
		return pkts
	}
	rec := &recordingScheme{Scheme: s}
	rcv, err := NewReceiver(rec, 1)
	if err != nil {
		t.Fatal(err)
	}
	rcv.SetBatchVerify(fastPathQueue(t, 64))

	if auths, _ := rcv.Ingest(blockOf(1)[0], time.Time{}); len(auths) != 0 {
		t.Fatal("verified inline; want parked")
	}
	// Block 2's first packet evicts block 1, whose verdict rides out.
	auths, err := rcv.Ingest(blockOf(2)[0], time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if len(auths) != 1 || auths[0].BlockID != 1 {
		t.Fatalf("eviction delivered %+v, want block 1's parked message", auths)
	}
	// Block 2's own packet was settled by the same resolve or is still
	// parked; closing the block settles it either way.
	rcv.CloseBlock(2)
	auths = append(auths, rcv.DrainDeferred()...)
	if len(auths) != 2 {
		t.Fatalf("delivered %d messages after CloseBlock, want 2", len(auths))
	}
	got, want := rcv.Totals(), rec.sum()
	if got.Authenticated != 2 || want.Authenticated != 2 || got.PendingSignature != 0 || want.PendingSignature != 0 {
		t.Fatalf("Totals() %+v, brute-force sum %+v; want 2 authenticated, 0 pending in both", got, want)
	}
}

// TestDemuxDeferredOrderDeterministic: replaying one multi-stream trace
// through a Demux with a shared batch-verify queue yields the identical
// event sequence every time — cross-stream order follows first contact,
// not map iteration.
func TestDemuxDeferredOrderDeterministic(t *testing.T) {
	const streams, n, blocks = 12, 4, 3
	schemes := make([]*signeach.SignEach, streams)
	type routed struct {
		stream uint64
		p      *packet.Packet
	}
	var trace []routed
	perStream := make([][]*packet.Packet, streams)
	for id := range schemes {
		s, err := signeach.New(n, crypto.NewSignerFromString(fmt.Sprintf("det-%d", id)))
		if err != nil {
			t.Fatal(err)
		}
		schemes[id] = s
		for b := 0; b < blocks; b++ {
			payloads := make([][]byte, n)
			for i := range payloads {
				payloads[i] = fmt.Appendf(nil, "s%d-b%d-m%d", id, b, i)
			}
			pkts, err := s.Authenticate(uint64(b), payloads)
			if err != nil {
				t.Fatal(err)
			}
			perStream[id] = append(perStream[id], pkts...)
		}
	}
	for i := 0; i < n*blocks; i++ { // round-robin across streams
		for id := range perStream {
			trace = append(trace, routed{uint64(100 - id), perStream[id][i]})
		}
	}

	replay := func() []string {
		dmx, err := NewDemux(func(id uint64) (*Receiver, error) {
			return NewReceiver(schemes[100-id], 4)
		}, streams)
		if err != nil {
			t.Fatal(err)
		}
		q := fastPathQueue(t, 1<<20)
		dmx.SetVerifyFastPath(nil, q)
		var events []string
		note := func(auths []StreamAuthenticated) {
			for _, a := range auths {
				events = append(events, fmt.Sprintf("%d/%d/%d", a.StreamID, a.BlockID, a.Index))
			}
		}
		for i, st := range trace {
			auths, err := dmx.Ingest(st.stream, st.p, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			note(auths)
			if i%32 == 31 {
				q.Resolve()
			}
			note(dmx.DrainDeferred())
		}
		q.Resolve()
		note(dmx.DrainDeferred())
		return events
	}
	first := replay()
	if len(first) != len(trace) {
		t.Fatalf("replay authenticated %d of %d", len(first), len(trace))
	}
	for run := 1; run < 20; run++ {
		if got := replay(); !reflect.DeepEqual(got, first) {
			t.Fatalf("replay %d diverged from replay 0:\n%v\n%v", run, got, first)
		}
	}
}

// TestDemuxCloseSettlesParkedVerdicts is the stream-level mirror of
// TestRetirementSettlesParkedVerdicts: a stream that leaves the demux (LRU
// eviction or explicit Close) with verdicts parked in the shared
// batch-verify queue, or resolved but not yet drained, still delivers them.
// Under eviction churn the multiset of (stream, block, index) authenticated
// through a shared queue equals the one authenticated inline.
func TestDemuxCloseSettlesParkedVerdicts(t *testing.T) {
	const streams, n, blocks, maxStreams = 5, 6, 3, 2
	signer := crypto.NewSignerFromString("close-parked")
	schemes := make([]scheme.Scheme, streams)
	for id := range schemes {
		if id%2 == 0 {
			se, err := signeach.New(n, signer)
			if err != nil {
				t.Fatal(err)
			}
			schemes[id] = se
		} else {
			schemes[id] = emssScheme(t, n)
		}
	}
	// Whole blocks, stream after stream: with two live streams every
	// third block evicts a stream whose last block is still parked.
	type routed struct {
		stream uint64
		p      *packet.Packet
	}
	var trace []routed
	for b := 0; b < blocks; b++ {
		for id, s := range schemes {
			payloads := make([][]byte, n)
			for i := range payloads {
				payloads[i] = fmt.Appendf(nil, "s%d-b%d-m%d", id, b, i)
			}
			pkts, err := s.Authenticate(uint64(b), payloads)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkts {
				trace = append(trace, routed{uint64(id), p})
			}
		}
	}

	replay := func(q *crypto.BatchVerifyQueue) (map[string]int, demuxTotals) {
		dmx, err := NewDemux(func(id uint64) (*Receiver, error) {
			return NewReceiver(schemes[id], 4)
		}, maxStreams)
		if err != nil {
			t.Fatal(err)
		}
		dmx.SetVerifyFastPath(nil, q)
		got := make(map[string]int)
		note := func(auths []StreamAuthenticated) {
			for _, a := range auths {
				got[fmt.Sprintf("%d/%d/%d", a.StreamID, a.BlockID, a.Index)]++
			}
		}
		for i, st := range trace {
			auths, err := dmx.Ingest(st.stream, st.p, time.Time{})
			if err != nil {
				t.Fatal(err)
			}
			note(auths)
			if i == len(trace)/2 {
				// An explicit leave, mid-block for the stream being fed.
				dmx.closeStream(st.stream)
			}
		}
		if q != nil {
			q.Resolve()
		}
		note(dmx.DrainDeferred())
		return got, dmx.counters()
	}

	inline, tot := replay(nil)
	if tot.EvictedStreams == 0 {
		t.Fatalf("trace never evicted a stream: %+v", tot)
	}
	if len(inline) < streams*blocks*(n-1) {
		t.Fatalf("inline replay authenticated only %d messages", len(inline))
	}
	for _, batch := range []int{1 << 20, 64, 5} {
		queued, _ := replay(fastPathQueue(t, batch))
		if !reflect.DeepEqual(queued, inline) {
			var missing []string
			for k := range inline {
				if queued[k] != inline[k] {
					missing = append(missing, k)
				}
			}
			slices.Sort(missing)
			t.Errorf("queue(%d) authenticated %d messages, inline %d; stream/block/index lost or miscounted: %v",
				batch, len(queued), len(inline), missing)
		}
	}
}
