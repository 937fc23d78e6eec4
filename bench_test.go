package mcauth

// The benchmark harness regenerates every figure of the paper's evaluation
// section (Figures 3-10, one benchmark each), runs the ablation studies
// DESIGN.md calls out, and measures the raw cryptographic throughput that
// motivates signature amortization in the first place. Run with:
//
//	go test -bench=. -benchmem
import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"mcauth/internal/catalog"
	"mcauth/internal/construct"
	"mcauth/internal/crypto"
	"mcauth/internal/delay"
	"mcauth/internal/depgraph"
	"mcauth/internal/experiments"
	"mcauth/internal/loss"
	"mcauth/internal/netsim"
	"mcauth/internal/obs"
	"mcauth/internal/packet"
	"mcauth/internal/scheme"
	"mcauth/internal/scheme/authtree"
	"mcauth/internal/scheme/emss"
	"mcauth/internal/scheme/signeach"
	"mcauth/internal/server"
	"mcauth/internal/stats"
	"mcauth/internal/stream"
	"mcauth/internal/transport"
	"mcauth/internal/verifier"
)

// --- Figures -------------------------------------------------------------

// benchFigure renders one registered experiment per iteration, as
// `mcfig -fig id` does.
func benchFigure(b *testing.B, id string) {
	e, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("no experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3TESLADelaySurface(b *testing.B)         { benchFigure(b, "fig3") }
func BenchmarkFig4TESLADisclosureSweep(b *testing.B)      { benchFigure(b, "fig4") }
func BenchmarkFig5AugmentedChainAB(b *testing.B)          { benchFigure(b, "fig5") }
func BenchmarkFig6AugmentedChainFixedLevel1(b *testing.B) { benchFigure(b, "fig6") }
func BenchmarkFig7EMSSMD(b *testing.B)                    { benchFigure(b, "fig7") }
func BenchmarkFig8SchemeComparison(b *testing.B)          { benchFigure(b, "fig8") }
func BenchmarkFig9CloseUp(b *testing.B)                   { benchFigure(b, "fig9") }
func BenchmarkFig10OverheadDelay(b *testing.B)            { benchFigure(b, "fig10") }

// --- Ablations -----------------------------------------------------------

// recurrenceQMin is the recurrence's q_min on the E_{m,d} graph of 1000
// packets at p = 0.3.
func recurrenceQMin(b *testing.B, m, d int) float64 {
	g, err := emss.Config{N: 1000, M: m, D: d}.Graph()
	if err != nil {
		b.Fatal(err)
	}
	res, err := g.Recurrence(0.3)
	if err != nil {
		b.Fatal(err)
	}
	return res.QMin
}

// BenchmarkAblationEdgeBudget sweeps the overhead<->robustness tradeoff of
// Section 3.1: q_min as the per-packet hash budget m grows.
func BenchmarkAblationEdgeBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for m := 1; m <= 6; m++ {
			recurrenceQMin(b, m, 1)
		}
	}
	// Report the tradeoff once.
	b.StopTimer()
	if b.N > 0 {
		for m := 1; m <= 6; m++ {
			b.Logf("m=%d (edges/pkt≈%d): q_min=%.4f", m, m, recurrenceQMin(b, m, 1))
		}
	}
}

// BenchmarkAblationDelayConstraint compares EMSS with the receiver-delay
// knob d capped small vs spread wide, at equal edge budget.
func BenchmarkAblationDelayConstraint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, d := range []int{1, 10, 100, 400} {
			recurrenceQMin(b, 2, d)
		}
	}
}

// BenchmarkAblationPathDiversity measures the Equation (1) bound spread
// (best-case disjoint vs worst-case overlapping paths) against the exact
// value on a mid-size EMSS graph.
func BenchmarkAblationPathDiversity(b *testing.B) {
	s, err := emss.New(emss.Config{N: 18, M: 2, D: 1}, crypto.NewSignerFromString("bench"))
	if err != nil {
		b.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for v := 2; v <= g.N(); v++ {
			if _, err := g.AuthProbBounds(v, 0.3, 10000); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationRecurrenceVsExact compares the cost of the paper's
// recurrence against the exact evaluator on the same E_{2,1} block.
func BenchmarkAblationRecurrenceVsExact(b *testing.B) {
	b.Run("recurrence", func(b *testing.B) {
		g, err := emss.Config{N: 1000, M: 2, D: 1}.Graph()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := g.Recurrence(0.3); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("markov-exact", func(b *testing.B) {
		s, err := emss.New(emss.Config{N: 1000, M: 2, D: 1}, crypto.NewSignerFromString("bench"))
		if err != nil {
			b.Fatal(err)
		}
		g, err := s.Graph()
		if err != nil {
			b.Fatal(err)
		}
		ch := loss.Bernoulli{P: 0.3}.Channel()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := g.ExactAuthProbDelivery(depgraph.Delivery{Channel: ch, Root: depgraph.Conditioned}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationConstructors compares the Section 5 builders' costs.
func BenchmarkAblationConstructors(b *testing.B) {
	c := construct.Constraint{N: 100, P: 0.2, TargetQMin: 0.9, MaxOutDegree: 6}
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := construct.Greedy(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("policy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := construct.PolicySearch(c, 8, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("probabilistic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := construct.Probabilistic(c, stats.NewRNG(uint64(i)+1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Scheme throughput ----------------------------------------------------

func benchPayloads(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		out[i][0] = byte(i)
	}
	return out
}

func benchScheme(b *testing.B, name string) scheme.Scheme {
	b.Helper()
	e, err := catalog.Build(catalog.Spec{
		ID: name, N: 128, M: 2, D: 1, A: 3, B: 3,
		Lag: 4, Interval: time.Millisecond, Seed: []byte("bench"),
	}, crypto.NewSignerFromString("bench"))
	if err != nil {
		b.Fatal(err)
	}
	return e.Scheme
}

// allocsPerOp runs bench for iters iterations, as `go test -bench
// -benchtime=<iters>x` does, and returns what it allocates per op. The
// ...AllocCeiling tests hold the hot paths' benchmarks to ceilings with it:
// each ceiling is about 1.3 times what the path makes, headroom for the
// runtime's own jitter, not for an allocation per packet coming back. The
// race detector instruments allocations, so they skip under -race.
func allocsPerOp(t *testing.T, iters int, bench func(*testing.B)) int64 {
	t.Helper()
	if raceEnabled {
		t.Skip("alloc counts are unreliable under the race detector")
	}
	benchtime := flag.Lookup("test.benchtime").Value
	was := benchtime.String()
	if err := benchtime.Set(fmt.Sprintf("%dx", iters)); err != nil {
		t.Fatal(err)
	}
	defer benchtime.Set(was)
	r := testing.Benchmark(bench)
	if r.N != iters {
		t.Fatalf("the benchmark stopped after %d of %d iterations; run it with -bench to see why", r.N, iters)
	}
	return r.AllocsPerOp()
}

// checkAllocs fails t when the named benchmark case allocates past ceil per
// op over 100 iterations.
func checkAllocs(t *testing.T, name string, ceil int64, bench func(*testing.B)) {
	t.Helper()
	if got := allocsPerOp(t, 100, bench); got > ceil {
		t.Errorf("%s: %d allocs/op exceeds the ceiling %d", name, got, ceil)
	}
}

// BenchmarkAuthenticate measures sender-side cost per 128-packet block —
// the amortization argument in CPU terms: sign-each pays 128 signatures
// where the chained schemes pay one. Each block is built from a few
// per-block slabs: rohatgi makes 6 allocations per block, emss and
// augchain 7, authtree 9, tesla 11, and signeach 131, 128 of them
// ed25519.Sign's output. TestAllocCeilings holds each to about 1.3 times
// that.
func BenchmarkAuthenticate(b *testing.B) {
	for _, name := range catalog.IDs() {
		b.Run(name, benchAuthenticate(name))
	}
}

func benchAuthenticate(name string) func(*testing.B) {
	return func(b *testing.B) {
		s := benchScheme(b, name)
		payloads := benchPayloads(s.BlockSize(), 512)
		b.SetBytes(int64(s.BlockSize() * 512))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Authenticate(uint64(i), payloads); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestAuthenticateAllocCeiling holds BenchmarkAuthenticate to about 1.3
// times each scheme's slabs, which an allocation per packet coming back
// trips for every scheme but signeach.
func TestAuthenticateAllocCeiling(t *testing.T) {
	ceil := map[string]int64{"rohatgi": 8, "emss": 9, "augchain": 9, "authtree": 12, "tesla": 14, "signeach": 170}
	for _, name := range catalog.IDs() {
		checkAllocs(t, "Authenticate/"+name, ceil[name], benchAuthenticate(name))
	}
}

// BenchmarkVerify measures receiver-side cost per block with in-order
// delivery and no loss.
func BenchmarkVerify(b *testing.B) {
	for _, name := range catalog.IDs() {
		b.Run(name, benchVerify(name))
	}
}

func benchVerify(name string) func(*testing.B) {
	return func(b *testing.B) {
		s := benchScheme(b, name)
		payloads := benchPayloads(s.BlockSize(), 512)
		pkts, err := s.Authenticate(1, payloads)
		if err != nil {
			b.Fatal(err)
		}
		at := make([]time.Time, len(pkts))
		for w := range pkts {
			at[w] = time.Unix(0, 0).Add(time.Duration(w)*time.Millisecond + time.Microsecond)
		}
		b.SetBytes(int64(s.BlockSize() * 512))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Verifier construction is setup, not the measured
			// receiver-side verification cost.
			b.StopTimer()
			v, err := s.NewVerifier(verifier.Env{})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for w, p := range pkts {
				if _, err := v.Ingest(p, at[w]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// TestVerifyAllocCeiling holds BenchmarkVerify to what the index-addressed
// verifiers, each with its own reused event buffer, make over a 128-packet
// block — rohatgi 3, emss 14, augchain 14, authtree 24, signeach 28, tesla
// 32 — with headroom for the runtime, not for a map, a per-packet event
// slice or a per-packet signature-check allocation coming back.
func TestVerifyAllocCeiling(t *testing.T) {
	ceil := map[string]int64{"rohatgi": 16, "emss": 32, "augchain": 32, "authtree": 64, "signeach": 64, "tesla": 80}
	for _, name := range catalog.IDs() {
		checkAllocs(t, "Verify/"+name, ceil[name], benchVerify(name))
	}
}

// BenchmarkVerifySpanOverhead measures the tracing tax on the receiver
// verify path in its three states: "off" (no trace sink attached, the
// library default), "disabled" (a ring attached but switched off — every
// record site costs one atomic load) and "enabled" (the mcserved default:
// every buffering and authentication writes a record). The ci gate holds
// disabled within
// 2% of off, which is what "near-zero overhead when disabled" means as an
// enforced number; enabled against off is printed, not gated — the cost of
// telemetry switched on, as a measured number.
func BenchmarkVerifySpanOverhead(b *testing.B) {
	for _, mode := range []string{"off", "disabled", "enabled"} {
		b.Run(mode, func(b *testing.B) {
			s := benchScheme(b, "emss")
			payloads := benchPayloads(s.BlockSize(), 512)
			pkts, err := s.Authenticate(1, payloads)
			if err != nil {
				b.Fatal(err)
			}
			at := make([]time.Time, len(pkts))
			for w := range pkts {
				at[w] = time.Unix(0, 0).Add(time.Duration(w)*time.Millisecond + time.Microsecond)
			}
			var env verifier.Env
			if mode != "off" {
				env = verifier.Env{Spans: obs.NewSpanSink(4096, nil), StreamID: 1}
				env.Spans.SetEnabled(mode == "enabled")
			}
			b.SetBytes(int64(s.BlockSize() * 512))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				v, err := s.NewVerifier(env)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for w, p := range pkts {
					if _, err := v.Ingest(p, at[w]); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkVerifyServing measures receiver-side cost in the serving
// configuration: one signature amortized over K block roots (authtree via
// deferred batch signing, signeach via MABS runs of K), verified through
// the receiver fast path — shared signature cache plus deferred
// batch-verify queue — so the K packets (or blocks) sharing an underlying
// signature cost one Ed25519 check. The verifiers hold batch-capable keys,
// as the serving tier's do: a plain key refuses a batch blob.
func BenchmarkVerifyServing(b *testing.B) {
	for _, k := range []int{16, 64} {
		b.Run(fmt.Sprintf("signeach/K=%d", k), benchVerifyServingSignEach(k))
		b.Run(fmt.Sprintf("authtree/K=%d", k), benchVerifyServingAuthtree(k))
	}
}

func benchVerifyServingSignEach(k int) func(*testing.B) {
	return func(b *testing.B) {
		const n = 128
		signer := crypto.BatchCapable(crypto.NewSignerFromString("bench"))
		s, err := signeach.New(n, signer)
		if err != nil {
			b.Fatal(err)
		}
		pkts, err := s.Authenticate(1, benchPayloads(n, 512))
		if err != nil {
			b.Fatal(err)
		}
		// Re-sign in MABS runs of K: each packet carries its run's batch
		// blob in place of a plain signature.
		for start := 0; start < n; start += k {
			contents := make([][]byte, min(k, n-start))
			for i := range contents {
				contents[i] = pkts[start+i].ContentBytes()
			}
			blobs, err := crypto.BatchSign(signer, contents)
			if err != nil {
				b.Fatal(err)
			}
			for i, blob := range blobs {
				pkts[start+i].Signature = blob
			}
		}
		at := time.Unix(0, 0)
		b.SetBytes(int64(n * 512))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			v, err := s.NewVerifier(verifier.Env{})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			authed := 0
			for _, p := range pkts {
				events, err := v.Ingest(p, at)
				if err != nil {
					b.Fatal(err)
				}
				authed += len(events)
			}
			if authed != n {
				b.Fatalf("authenticated %d of %d", authed, n)
			}
		}
	}
}

func benchVerifyServingAuthtree(k int) func(*testing.B) {
	return func(b *testing.B) {
		const n = 128
		signer := crypto.BatchCapable(crypto.NewSignerFromString("bench"))
		s, err := authtree.New(n, signer)
		if err != nil {
			b.Fatal(err)
		}
		payloads := benchPayloads(n, 512)
		// K blocks whose roots share one batch signature — the send
		// side of the serving daemon.
		var (
			blocks   [][]*packet.Packet
			prs      []*scheme.PendingRoot
			contents [][]byte
		)
		for blk := 1; blk <= k; blk++ {
			pkts, pr, err := s.AuthenticateDeferred(uint64(blk), payloads)
			if err != nil {
				b.Fatal(err)
			}
			blocks = append(blocks, pkts)
			prs = append(prs, pr)
			contents = append(contents, pr.Content)
		}
		blobs, err := crypto.BatchSign(signer, contents)
		if err != nil {
			b.Fatal(err)
		}
		for i, pr := range prs {
			pr.Attach(blobs[i])
		}
		at := time.Unix(0, 0)
		b.SetBytes(int64(k * n * 512))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			rcv, err := stream.NewReceiver(s, k+1)
			if err != nil {
				b.Fatal(err)
			}
			sig, err := crypto.NewSigCache(crypto.MaxBatch)
			if err != nil {
				b.Fatal(err)
			}
			q, err := crypto.NewBatchVerifyQueue(k, sig)
			if err != nil {
				b.Fatal(err)
			}
			rcv.SetBatchVerify(q)
			b.StartTimer()
			authed := 0
			for _, pkts := range blocks {
				for _, p := range pkts {
					auths, err := rcv.Ingest(p, at)
					if err != nil {
						b.Fatal(err)
					}
					authed += len(auths)
				}
			}
			q.Resolve()
			authed += len(rcv.DrainDeferred())
			if authed != k*n {
				b.Fatalf("authenticated %d of %d", authed, k*n)
			}
		}
	}
}

// TestVerifyServingAllocCeiling holds BenchmarkVerifyServing to about 1.3
// times what it makes: 21 allocs/op for signeach at K = 16 and 64, and 880
// and 3056 for authtree at K = 16 and 64.
func TestVerifyServingAllocCeiling(t *testing.T) {
	for _, c := range []struct {
		k                  int
		signeach, authtree int64
	}{{16, 28, 1150}, {64, 28, 4000}} {
		checkAllocs(t, fmt.Sprintf("VerifyServing/signeach/K=%d", c.k), c.signeach, benchVerifyServingSignEach(c.k))
		checkAllocs(t, fmt.Sprintf("VerifyServing/authtree/K=%d", c.k), c.authtree, benchVerifyServingAuthtree(c.k))
	}
}

// servePacket is one wire packet of the BenchmarkServeLoop trace.
type servePacket struct {
	stream uint64
	p      *packet.Packet
}

// serveLoopTrace builds what an mcserved subscriber reads: `rounds` blocks
// of n 256-byte messages on each of `streams` streams (mixed emss / rohatgi
// / authtree / signeach by stream id), every deferrable root signed through
// crypto.BatchSign in batches of up to 64, round by round, stream by stream.
func serveLoopTrace(b *testing.B, streams, n, rounds int) ([]scheme.Scheme, []servePacket) {
	b.Helper()
	signer := crypto.BatchCapable(crypto.NewSignerFromString("bench"))
	schemes := make([]scheme.Scheme, streams)
	for id := range schemes {
		kind := []string{"emss", "rohatgi", "authtree", "signeach"}[id%4]
		e, err := catalog.Build(catalog.Spec{ID: kind, N: n, M: 2, D: 1}, signer)
		if err != nil {
			b.Fatal(err)
		}
		schemes[id] = e.Scheme
	}
	var (
		trace []servePacket
		roots []*scheme.PendingRoot
	)
	attach := func() {
		contents := make([][]byte, len(roots))
		for i, pr := range roots {
			contents[i] = pr.Content
		}
		blobs, err := crypto.BatchSign(signer, contents)
		if err != nil {
			b.Fatal(err)
		}
		for i, pr := range roots {
			pr.Attach(blobs[i])
		}
		roots = roots[:0]
	}
	for blk := 0; blk < rounds; blk++ {
		for id, s := range schemes {
			// Distinct content per stream and block, or identical signeach
			// signatures would collapse in the signature cache.
			payloads := benchPayloads(n, 256)
			for _, pl := range payloads {
				pl[1], pl[2] = byte(id), byte(blk)
			}
			var (
				pkts []*packet.Packet
				err  error
			)
			if da, ok := s.(scheme.DeferredAuthenticator); ok {
				var pr *scheme.PendingRoot
				pkts, pr, err = da.AuthenticateDeferred(uint64(blk), payloads)
				roots = append(roots, pr)
			} else {
				pkts, err = s.Authenticate(uint64(blk), payloads)
			}
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range pkts {
				trace = append(trace, servePacket{uint64(id), p})
			}
			if len(roots) == crypto.MaxBatch {
				attach()
			}
		}
	}
	if len(roots) > 0 {
		attach()
	}
	return schemes, trace
}

// BenchmarkServeLoop is the receive loop of serve.VerifySink.Packet, per
// packet: Demux.Ingest, a queue Resolve every 32nd packet, DrainDeferred
// after every packet — with 64 live blocks on every stream, the shared
// cache and the batch-verify queue at the daemon's defaults. One op is one
// packet. streams=64 must cost what streams=8 costs: the receiver's
// accounting does no per-packet work over live blocks or streams.
// (BenchmarkVerifyServing drains once per 512 packets and cannot see that.)
func BenchmarkServeLoop(b *testing.B) {
	for _, streams := range []int{8, 64} {
		b.Run(fmt.Sprintf("streams=%d", streams), benchServeLoop(streams))
	}
}

func benchServeLoop(streams int) func(*testing.B) {
	const (
		n           = 8
		live        = 64 // mcserved -connect: NewVerifySink(64, ...)
		timedRounds = 16
		verifyBatch = 32   // -verify-batch
		verifyCache = 1024 // -verify-cache
	)
	var (
		schemes []scheme.Scheme
		trace   []servePacket
	)
	return func(b *testing.B) {
		if trace == nil { // built once, not once per b.N ramp step
			schemes, trace = serveLoopTrace(b, streams, n, live+timedRounds)
		}
		warm := streams * n * live
		at := time.Unix(0, 0)
		var (
			dmx         *stream.Demux
			q           *crypto.BatchVerifyQueue
			fed, authed int
		)
		step := func(sp servePacket) {
			auths, err := dmx.Ingest(sp.stream, sp.p, at)
			if err != nil {
				b.Fatal(err)
			}
			fed++
			if fed%verifyBatch == 0 && q.Pending() > 0 {
				q.Resolve()
			}
			authed += len(auths) + len(dmx.DrainDeferred())
		}
		settle := func() {
			q.Resolve()
			authed += len(dmx.DrainDeferred())
			// Only the block the pass stopped inside may be waiting
			// for its signature packet.
			if authed > fed || fed-authed >= n {
				b.Fatalf("authenticated %d of %d packets", authed, fed)
			}
		}
		// restart opens a fresh demux with the first `live` rounds
		// already ingested, so every timed packet meets 64 live blocks
		// per stream.
		restart := func() {
			var err error
			dmx, err = stream.NewDemux(func(id uint64) (*stream.Receiver, error) {
				return stream.NewReceiver(schemes[id], live)
			}, streams)
			if err != nil {
				b.Fatal(err)
			}
			cache, err := verifier.NewSharedCache(verifyCache)
			if err != nil {
				b.Fatal(err)
			}
			sig, err := crypto.NewSigCache(verifyCache)
			if err != nil {
				b.Fatal(err)
			}
			if q, err = crypto.NewBatchVerifyQueue(verifyBatch, sig); err != nil {
				b.Fatal(err)
			}
			dmx.SetVerifyFastPath(cache, q)
			fed, authed = 0, 0
			for _, sp := range trace[:warm] {
				step(sp)
			}
		}
		restart()
		b.ReportAllocs()
		b.ResetTimer()
		for i, next := 0, warm; i < b.N; i, next = i+1, next+1 {
			if next == len(trace) {
				b.StopTimer()
				settle()
				restart()
				next = warm
				b.StartTimer()
			}
			step(trace[next])
		}
		b.StopTimer()
		settle()
	}
}

// TestServeLoopAllocCeiling holds BenchmarkServeLoop to 16 allocs per
// packet at both widths; it makes 5 and 6.
func TestServeLoopAllocCeiling(t *testing.T) {
	for _, streams := range []int{8, 64} {
		checkAllocs(t, fmt.Sprintf("ServeLoop/streams=%d", streams), 16, benchServeLoop(streams))
	}
}

// BenchmarkPublish is the server layer's rung: server.Publish on the
// benchmark's mixed rotation (emss / rohatgi / authtree / signeach by
// stream id, n = 8) over 8 streams, 256-byte payloads and batches of up to
// 64 roots, into one subscriber that only drains. One op is one message:
// the publishers split b.N, each going round every stream from its own
// offset. Close, which pads and signs what is left, is not timed.
func BenchmarkPublish(b *testing.B) {
	for _, publishers := range []int{1, 2} {
		b.Run(fmt.Sprintf("publishers=%d", publishers), benchPublish(publishers))
	}
}

func benchPublish(publishers int) func(*testing.B) {
	const (
		streams = 8
		n       = 8
	)
	payloads := benchPayloads(streams*n, 256)
	return func(b *testing.B) {
		srv, err := server.New(server.Config{
			Signer:             crypto.NewSignerFromString("bench"),
			BatchSize:          64,
			MaxSubscriberQueue: 1 << 16,
		})
		if err != nil {
			b.Fatal(err)
		}
		for id := uint64(1); id <= streams; id++ {
			kind := []string{"emss", "rohatgi", "authtree", "signeach"}[id%4]
			if err := srv.OpenStream(id, func(signer crypto.Signer) (scheme.Scheme, error) {
				e, err := catalog.Build(catalog.Spec{ID: kind, N: n, M: 2, D: 1}, signer)
				return e.Scheme, err
			}); err != nil {
				b.Fatal(err)
			}
		}
		sub, err := srv.Subscribe()
		if err != nil {
			b.Fatal(err)
		}
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for range sub.C() {
			}
		}()
		var wg sync.WaitGroup
		b.ReportAllocs()
		b.ResetTimer()
		for g := 0; g < publishers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, k := g, 0; i < b.N; i, k = i+publishers, k+1 {
					id := uint64((k+g*streams/publishers)%streams + 1)
					if err := srv.Publish(id, payloads[i%len(payloads)]); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		if err := srv.Close(); err != nil {
			b.Fatal(err)
		}
		<-drained
		if drops := sub.Drops(); drops != 0 {
			b.Fatalf("the draining subscriber dropped %d packets", drops)
		}
	}
}

// TestPublishAllocCeiling holds BenchmarkPublish to 3 allocs per message,
// the nearest whole number above 1.3 times the 2 it makes: the block's
// slabs and batch signatures amortized over its 8 messages. It runs 4096
// messages, not 100, so that batches fill and sign inside the timed loop.
func TestPublishAllocCeiling(t *testing.T) {
	for _, publishers := range []int{1, 2} {
		if got := allocsPerOp(t, 4096, benchPublish(publishers)); got > 3 {
			t.Errorf("Publish/publishers=%d: %d allocs/op exceeds the ceiling 3", publishers, got)
		}
	}
}

// BenchmarkWireEncode measures packet serialization.
func BenchmarkWireEncode(b *testing.B) {
	s := benchScheme(b, "emss")
	pkts, err := s.Authenticate(1, benchPayloads(s.BlockSize(), 512))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pkts {
			if _, err := p.Encode(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEncodeAppend measures the append-style serialization used on
// the wire hot path: one reused buffer across the whole block.
func BenchmarkEncodeAppend(b *testing.B) {
	s := benchScheme(b, "emss")
	pkts, err := s.Authenticate(1, benchPayloads(s.BlockSize(), 512))
	if err != nil {
		b.Fatal(err)
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for _, p := range pkts {
			if buf, err = p.AppendEncode(buf); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Analysis machinery ----------------------------------------------------

// BenchmarkMonteCarloAuthProb measures graph Monte-Carlo estimation
// (n=100, 1000 trials).
func BenchmarkMonteCarloAuthProb(b *testing.B) {
	s, err := emss.New(emss.Config{N: 100, M: 2, D: 1}, crypto.NewSignerFromString("bench"))
	if err != nil {
		b.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(1)
	pattern := depgraph.BernoulliPatternInto(0.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.MonteCarloAuthProbInto(pattern, 1000, rng, depgraph.MCOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonteCarloAuthProbBursty is the `burst` experiment's shape: an
// E_{2,1} block of 60 under a Gilbert–Elliott channel (stationary loss 0.1,
// mean burst 5, lossless Good, total-loss Bad), 20 000 trials. The
// lane-native sampler flips two bit-sliced coins per packet for 64 trials,
// and the loss coin, at 0 or 1, draws nothing: one drawing flip per packet,
// as for BenchmarkMonteCarloAuthProb's Bernoulli loss.
func BenchmarkMonteCarloAuthProbBursty(b *testing.B) {
	s, err := emss.New(emss.Config{N: 60, M: 2, D: 1}, crypto.NewSignerFromString("bench"))
	if err != nil {
		b.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		b.Fatal(err)
	}
	ge, err := loss.NewGilbertElliott(0.1*0.2/0.9, 0.2, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(1)
	pattern := loss.PatternInto(ge)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.MonteCarloAuthProbInto(pattern, 20000, rng, depgraph.MCOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMonteCarloAllocCeiling holds the Monte-Carlo estimator's benchmarks
// to 64 and 220 allocs/op. BenchmarkMonteCarloAuthProb makes 18 — the shard
// plan, one vertex order per call, and per shard a generator, two tallies
// and the lane words — so the order or the lane scratch moving into the
// per-shard closure's trial loop, or a per-trial allocation, trips it.
// Its bursty twin makes 170 the same way over 40 shards, and a per-group
// allocation in the lane sampler (313 groups of 64 trials) trips it too.
func TestMonteCarloAllocCeiling(t *testing.T) {
	checkAllocs(t, "MonteCarloAuthProb", 64, BenchmarkMonteCarloAuthProb)
	checkAllocs(t, "MonteCarloAuthProbBursty", 220, BenchmarkMonteCarloAuthProbBursty)
}

// BenchmarkLossSample measures the loss samplers alone: one op is one
// 1024-packet pattern (SampleInto, no allocation).
func BenchmarkLossSample(b *testing.B) {
	bernoulli, err := loss.NewBernoulli(0.1)
	if err != nil {
		b.Fatal(err)
	}
	gilbert, err := loss.NewGilbertElliott(0.05, 0.25, 0.01, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	markov3, err := loss.NewMarkovChain(
		[][]float64{{0.9, 0.08, 0.02}, {0.3, 0.6, 0.1}, {0.2, 0.2, 0.6}},
		[]float64{0.01, 0.3, 0.9})
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []struct {
		name  string
		model loss.Model
	}{{"bernoulli", bernoulli}, {"gilbert", gilbert}, {"markov3", markov3}} {
		b.Run(m.name, func(b *testing.B) {
			rng := stats.NewRNG(1)
			received := make([]bool, 1025)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.model.SampleInto(rng, received)
			}
		})
	}
}

// BenchmarkMonteCarloAuthProbParallel measures the sharded Monte-Carlo
// engine across worker counts (n=100, 20000 trials); results are
// bit-identical for every setting, only wall-clock changes.
func BenchmarkMonteCarloAuthProbParallel(b *testing.B) {
	s, err := emss.New(emss.Config{N: 100, M: 2, D: 1}, crypto.NewSignerFromString("bench"))
	if err != nil {
		b.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		b.Fatal(err)
	}
	pattern := depgraph.BernoulliPatternInto(0.2)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			if workers > 1 && runtime.NumCPU() == 1 {
				// On a single-CPU host the extra workers only add
				// scheduling noise; the rows would poison baseline
				// comparisons made on wider machines.
				b.Skip("single CPU: multi-worker rows are noise")
			}
			rng := stats.NewRNG(1)
			opts := depgraph.MCOptions{Workers: workers}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.MonteCarloAuthProbInto(pattern, 20000, rng, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExactAuthProb measures exhaustive enumeration at n=18.
func BenchmarkExactAuthProb(b *testing.B) {
	s, err := emss.New(emss.Config{N: 18, M: 2, D: 1}, crypto.NewSignerFromString("bench"))
	if err != nil {
		b.Fatal(err)
	}
	g, err := s.Graph()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.ExactAuthProb(0.2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNetsimBlock measures a full multicast simulation (50 receivers,
// 100-packet EMSS block).
func BenchmarkNetsimBlock(b *testing.B) {
	s, err := emss.New(emss.Config{N: 100, M: 2, D: 1}, crypto.NewSignerFromString("bench"))
	if err != nil {
		b.Fatal(err)
	}
	model, err := loss.NewBernoulli(0.1)
	if err != nil {
		b.Fatal(err)
	}
	payloads := benchPayloads(100, 256)
	cfg := netsim.Config{
		Receivers:    50,
		Loss:         model,
		Delay:        delay.Constant{D: time.Millisecond},
		SendInterval: time.Millisecond,
		Start:        time.Unix(0, 0),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := netsim.Run(s, cfg, uint64(i), payloads); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNetsimBlockAllocCeiling holds BenchmarkNetsimBlock to 580 allocs per
// block; it makes 446 — receivers in chunks of 128, one scratch and one
// verifier per chunk, both per-index rows of every receiver cut from one
// array — so a per-receiver verifier or per-receiver rows coming back trip
// it.
func TestNetsimBlockAllocCeiling(t *testing.T) {
	checkAllocs(t, "NetsimBlock", 580, BenchmarkNetsimBlock)
}

// BenchmarkStreamPipeline measures the full session layer: chop messages
// into blocks, authenticate, serialize, deserialize, demultiplex, verify.
func BenchmarkStreamPipeline(b *testing.B) {
	s := benchScheme(b, "emss")
	const messages = 512 // 4 blocks of 128
	payload := make([]byte, 256)
	b.SetBytes(int64(messages * len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Session setup is not the measured pipeline cost.
		b.StopTimer()
		snd, err := stream.NewSender(s, 1)
		if err != nil {
			b.Fatal(err)
		}
		rcv, err := stream.NewReceiver(s, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		authenticated := 0
		for m := 0; m < messages; m++ {
			pkts, err := snd.Push(payload)
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range pkts {
				wire, err := p.Encode()
				if err != nil {
					b.Fatal(err)
				}
				events, err := rcv.IngestWire(wire, time.Unix(0, 0))
				if err != nil {
					b.Fatal(err)
				}
				authenticated += len(events)
			}
		}
		if authenticated != messages {
			b.Fatalf("authenticated %d, want %d", authenticated, messages)
		}
	}
}

// BenchmarkFrameRoundTrip measures the stream-tagged byte-stream framing
// the serving tier speaks (transport.MuxFrameWriter / MuxFrameReader).
func BenchmarkFrameRoundTrip(b *testing.B) {
	s := benchScheme(b, "emss")
	pkts, err := s.Authenticate(1, benchPayloads(s.BlockSize(), 512))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		fw := transport.NewMuxFrameWriter(&buf)
		for _, p := range pkts {
			if err := fw.WritePacket(1, p); err != nil {
				b.Fatal(err)
			}
		}
		fr := transport.NewMuxFrameReader(&buf)
		for range pkts {
			if _, _, err := fr.ReadPacket(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkExperimentEndToEnd renders every registered experiment once per
// iteration (the full `mcfig -all` workload).
func BenchmarkExperimentEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, e := range experiments.All() {
			if e.ID == "burst" {
				continue // dominated by BenchmarkMonteCarloAuthProbBursty above
			}
			if err := e.Run(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}
