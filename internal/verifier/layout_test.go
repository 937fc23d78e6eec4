package verifier

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/obs"
	"mcauth/internal/packet"
	"mcauth/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// buildEMSS constructs an n-packet block in the EMSS E_{2,1} shape by hand:
// P_i carries H(P_{i-1}) and H(P_{i-2}), and the last packet is signed.
// In-order delivery buffers everything until the signature cascades back;
// reverse-order delivery authenticates each packet as it arrives.
func buildEMSS(signer crypto.Signer, blockID uint64, n int) []*packet.Packet {
	pkts := make([]*packet.Packet, n+1)
	for i := 1; i <= n; i++ {
		pkts[i] = &packet.Packet{BlockID: blockID, Index: uint32(i), Payload: fmt.Appendf(nil, "payload-%03d", i)}
		for _, to := range []int{i - 1, i - 2} {
			if to >= 1 {
				pkts[i].Hashes = append(pkts[i].Hashes, packet.HashRef{TargetIndex: uint32(to), Digest: pkts[to].Digest()})
			}
		}
	}
	pkts[n].Signature = signer.Sign(pkts[n].ContentBytes())
	return pkts[1:]
}

// TestChainedIgnoresOutOfBlockHashTargets: a signed packet may carry hashes
// for indices the block does not have. They can authenticate nothing, so
// they must not be trusted, counted into the hash buffer's depth, or reach
// past the per-index state; the in-block cascade is unaffected.
func TestChainedIgnoresOutOfBlockHashTargets(t *testing.T) {
	signer := crypto.NewSignerFromString("s")
	const n = 4
	pkts := make([]*packet.Packet, n+1)
	for i := 1; i <= n; i++ {
		pkts[i] = &packet.Packet{BlockID: 1, Index: uint32(i), Payload: []byte{byte(i)}}
	}
	stray := crypto.HashBytes([]byte("stray"))
	pkts[3].Hashes = []packet.HashRef{{TargetIndex: 4, Digest: pkts[4].Digest()}}
	pkts[1].Hashes = []packet.HashRef{
		{TargetIndex: 0, Digest: stray},
		{TargetIndex: 2, Digest: pkts[2].Digest()},
		{TargetIndex: n + 1, Digest: stray},
		{TargetIndex: 3, Digest: pkts[3].Digest()},
		{TargetIndex: 1 << 31, Digest: stray},
		{TargetIndex: ^uint32(0), Digest: stray},
	}
	pkts[1].Signature = signer.Sign(pkts[1].ContentBytes())

	tracer := obs.NewSpanSink(obs.KeepAll, nil)
	v, err := newChained(1, n, signer.Public(), Env{Spans: tracer})
	if err != nil {
		t.Fatal(err)
	}
	// P_4 waits in the message buffer; the signature packet then trusts the
	// two in-block digests (P_2, P_3: the hash buffer's whole depth).
	ingest(t, v, pkts[4])
	if events := ingest(t, v, pkts[1]); len(events) != 1 {
		t.Fatalf("signature packet produced %d events, want 1", len(events))
	}
	if hw := v.Stats().HashBufferHighWater; hw != 2 {
		t.Errorf("HashBufferHighWater = %d, want 2 (the in-block hashes only)", hw)
	}
	for _, sp := range tracer.Snapshot() {
		if sp.Kind == obs.SpanHashBuffered && (sp.Index < 1 || sp.Index > n) {
			t.Errorf("hash_buffered traced for out-of-block index %d", sp.Index)
		}
	}
	if events := ingest(t, v, pkts[3]); len(events) != 2 || events[0].Index != 3 || events[1].Index != 4 {
		t.Errorf("P_3 cascade = %v, want P_3 then P_4", events)
	}
	ingest(t, v, pkts[2])
	st := v.Stats()
	if st.Authenticated != n || st.Rejected != 0 || st.HashBufferHighWater != 2 || v.pendingCount() != 0 {
		t.Errorf("stats %+v, pending %d", st, v.pendingCount())
	}
	for _, idx := range []uint32{0, n + 1, 1 << 31, ^uint32(0)} {
		if v.isAuthentic(idx) {
			t.Errorf("IsAuthentic(%d) for an index outside the block", idx)
		}
	}
}

// TestChainedSteadyStateAllocs guards the index-addressed layout and the
// verifier-owned event buffer: a verifier Reset for a block it has served
// before allocates nothing, whether the block buffers entirely and cascades
// once or authenticates packet by packet — no map growth, no per-packet
// digest staging or event slice, no cascade queue, no new slots.
func TestChainedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	signer := crypto.NewSignerFromString("s")
	const n = 128
	inOrder := buildEMSS(signer, 1, n)
	reverse := make([]*packet.Packet, n)
	for i, p := range inOrder {
		reverse[n-1-i] = p
	}
	at, pub := time.Unix(0, 0), signer.Public()
	for name, order := range map[string][]*packet.Packet{"in-order": inOrder, "reverse": reverse} {
		// AllocsPerRun's warm-up run grows the buffers once.
		v := new(Chained)
		perBlock := testing.AllocsPerRun(5, func() {
			if err := v.Reset(1, n, pub, Env{}); err != nil {
				t.Fatal(err)
			}
			for _, p := range order {
				if _, err := v.Ingest(p, at); err != nil {
					t.Fatal(err)
				}
			}
		})
		if st := v.Stats(); st.Authenticated != n {
			t.Fatalf("%s: authenticated %d of %d", name, st.Authenticated, n)
		}
		if perBlock > 0 {
			t.Errorf("%s: %.0f allocations per %d-packet block after Reset, want 0", name, perBlock, n)
		}
	}
}

// replayStep is one delivery of the recorded trace.
type replayStep struct {
	at   time.Time
	p    *packet.Packet
	kind string
}

// replayTrace derives a seeded delivery of one n-packet block: per-packet
// loss, duplicated copies, jitter wide enough to reorder, forged twins
// (genuine header and hashes, fabricated payload) and a signature packet
// that arrives mid-block.
func replayTrace(signer crypto.Signer, n int, seed uint64) []replayStep {
	rng := stats.NewRNG(seed)
	pkts := buildEMSS(signer, 7, n)
	start := time.Unix(100, 0)
	var steps []replayStep
	deliver := func(w int, p *packet.Packet, kind string) {
		jitter := time.Duration(rng.Intn(int(40 * time.Millisecond)))
		steps = append(steps, replayStep{at: start.Add(time.Duration(w)*10*time.Millisecond + jitter), p: p, kind: kind})
	}
	for w, p := range pkts {
		forged := *p
		forged.Payload = []byte("forged")
		if len(p.Signature) > 0 {
			// The signature packet overtakes half the block — what follows
			// it finds its digest already trusted — behind a forged twin,
			// and its second copy keeps its place at the end.
			deliver(n/3, &forged, "forged")
			deliver(n/2, p, "pass")
			deliver(w, p, "dup")
			continue
		}
		if rng.Bernoulli(0.15) {
			continue
		}
		deliver(w, p, "pass")
		if rng.Bernoulli(0.2) {
			deliver(w, p, "dup")
		}
		if rng.Bernoulli(0.15) {
			deliver(w, &forged, "forged")
		}
	}
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].at.Before(steps[j].at) })
	return steps
}

// TestChainedReplayMatchesRecorded replays one seeded lossy, duplicated,
// reordered and forged delivery through the verifier in its synchronous,
// capped and deferred (BatchQ) configurations and compares everything the
// verifier makes observable — each Ingest's events and the buffer depth
// after it, deferred verdicts' sink deliveries, the trace records the
// Recorder wrote, the final Stats and the authenticated set — with the
// transcript recorded from the map-based implementation this layout
// replaced (testdata/replay.golden, written at the parent commit).
func TestChainedReplayMatchesRecorded(t *testing.T) {
	signer := crypto.NewSignerFromString("replay")
	const n = 40
	steps := replayTrace(signer, n, 20260525)
	var out strings.Builder
	for _, mode := range []struct {
		name     string
		cap      int
		deferred bool
	}{
		{name: "sync"},
		{name: "capped", cap: 5},
		{name: "deferred", deferred: true},
		{name: "deferred-capped", cap: 6, deferred: true},
	} {
		fmt.Fprintf(&out, "== %s\n", mode.name)
		tracer := obs.NewSpanSink(obs.KeepAll, nil)
		env := Env{StreamID: 3, MaxBuffered: mode.cap, Spans: tracer}
		if mode.deferred {
			q, err := crypto.NewBatchVerifyQueue(2, nil)
			if err != nil {
				t.Fatal(err)
			}
			env.BatchQ = q
			env.Sink = func(events []Event) { fmt.Fprintf(&out, "  sink %s\n", eventIndices(events)) }
		}
		v, err := newChained(7, n, signer.Public(), env)
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range steps {
			events, err := v.Ingest(st.p, st.at)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%03d %-6s P%-2d -> %s pending %d\n", i, st.kind, st.p.Index, eventIndices(events), v.pendingCount())
			if mode.deferred && i%9 == 8 {
				fmt.Fprintf(&out, "  resolve %d\n", env.BatchQ.Resolve())
			}
		}
		if mode.deferred {
			fmt.Fprintf(&out, "  resolve %d\n", env.BatchQ.Resolve())
		}
		s := v.Stats()
		fmt.Fprintf(&out, "stats received %d authenticated %d rejected %d duplicates %d msg_hw %d hash_hw %d overflow %d pending_sig %d pending %d\n",
			s.Received, s.Authenticated, s.Rejected, s.Duplicates, s.MsgBufferHighWater, s.HashBufferHighWater,
			s.DroppedOverflow, s.PendingSignature, v.pendingCount())
		fmt.Fprintf(&out, "time_to_auth count %d sum %d min %d max %d\n", s.TimeToAuth.Count, s.TimeToAuth.Sum, s.TimeToAuth.MinSeen, s.TimeToAuth.MaxSeen)
		out.WriteString("authentic ")
		for idx := uint32(0); idx <= n+1; idx++ {
			if v.isAuthentic(idx) {
				out.WriteByte('1')
			} else {
				out.WriteByte('0')
			}
		}
		out.WriteByte('\n')
		for _, sp := range tracer.Snapshot() {
			fmt.Fprintf(&out, "span %s P%d t %d dur %d depth %d %s\n", sp.Kind, sp.Index, sp.TimeNS, sp.DurNS, sp.Depth, sp.Reason)
		}
	}

	golden := filepath.Join("testdata", "replay.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := "<end of file>"
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("replay diverges from the recorded transcript at line %d:\n got  %s\n want %s", i+1, gl[i], w)
			}
		}
		t.Fatalf("replay transcript is %d lines, recorded %d", len(gl), len(wl))
	}
}

// eventIndices renders the indices of events in order.
func eventIndices(events []Event) string {
	idx := make([]uint32, len(events))
	for i, e := range events {
		idx[i] = e.Index
	}
	return fmt.Sprint(idx)
}
