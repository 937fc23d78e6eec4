package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/delay"
	"mcauth/internal/depgraph"
	"mcauth/internal/experiments"
	"mcauth/internal/loss"
	"mcauth/internal/netsim"
	"mcauth/internal/parallel"
	"mcauth/internal/scheme"
	"mcauth/internal/scheme/emss"
	"mcauth/internal/stats"
)

// analyze_sweep is the repository's other user: the analyst regenerating
// the paper's figures. One iteration renders every experiment into a
// SHA-256 and runs the relay-overlay simulation in ci.sh's shape (emss
// n=8, p=0.1, depth 2, fanout 4, one edge at 0.5, relays on). Only netsim,
// depgraph, loss, construct, analysis and parallel run, at the default
// worker count; set-up computes the reference digests with one worker.
type sweepInst struct {
	tr        *tracer
	seed      uint64
	receivers int
	// figures, when set, replaces experiments.RunAll by these experiments:
	// the smoke test's way to an iteration of milliseconds.
	figures []string

	s        scheme.Scheme
	payloads [][]byte
	overhead []int // authentication bytes of each wire packet, by index

	wantFigures, wantOverlay [sha256.Size]byte
	refFigures               time.Duration // the one-worker figure sweep of set-up
}

func setupSweep(p params, tr *tracer) (instance, error) {
	in := &sweepInst{tr: tr, seed: p.seed, receivers: 20000}
	if p.tiny {
		in.receivers = 200
		in.figures = []string{"fig3", "fig8", "fig10"}
	}
	var err error
	if in.s, err = emss.New(emss.Config{N: 8, M: 2, D: 1}, crypto.NewSignerFromString("mcsim-sender")); err != nil {
		return nil, err
	}
	in.payloads = make([][]byte, in.s.BlockSize())
	for i := range in.payloads {
		in.payloads[i] = fmt.Appendf(nil, "payload-%06d", i)
	}
	pkts, err := in.s.Authenticate(1, in.payloads)
	if err != nil {
		return nil, err
	}
	in.overhead = make([]int, len(pkts)+1)
	for _, pkt := range pkts {
		in.overhead[pkt.Index] = pkt.EncodedSize() - len(pkt.Payload)
	}
	t0 := time.Now()
	if in.wantFigures, err = in.renderFigures(1); err != nil {
		return nil, err
	}
	in.refFigures = time.Since(t0)
	res, err := in.overlay(1)
	if err != nil {
		return nil, err
	}
	in.wantOverlay, err = overlayDigest(res)
	return in, err
}

func (in *sweepInst) close() {}

// renderFigures is experiments.RunAll into a SHA-256.
func (in *sweepInst) renderFigures(workers int) (digest [sha256.Size]byte, err error) {
	experiments.Workers = workers
	h := sha256.New()
	if in.figures == nil {
		err = experiments.RunAll(h)
	} else {
		err = in.runSome(h)
	}
	h.Sum(digest[:0])
	return digest, err
}

// runSome renders the chosen experiments the way RunAll renders all.
func (in *sweepInst) runSome(h hash.Hash) error {
	bufs, err := parallel.Map(experiments.Workers, in.figures, func(_ int, id string) ([]byte, error) {
		e, ok := experiments.Get(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		var buf bytes.Buffer
		err := e.Run(&buf)
		return buf.Bytes(), err
	})
	for _, b := range bufs {
		h.Write(b)
	}
	return err
}

// overlay is cmd/mcsim's -overlay run with mcsim's defaults for every flag
// ci.sh leaves alone.
func (in *sweepInst) overlay(workers int) (*netsim.OverlayResult, error) {
	lastHop, err := loss.NewBernoulli(0.1)
	if err != nil {
		return nil, err
	}
	tree, err := loss.NewUniformTree(in.seed^0x6f7665726c6179, 2, 4, nil, lastHop)
	if err != nil {
		return nil, err
	}
	edge, err := loss.NewBernoulli(0.5)
	if err != nil {
		return nil, err
	}
	if err := tree.SetEdge(1, edge); err != nil {
		return nil, err
	}
	gauss, err := delay.NewGaussian(20*time.Millisecond, 5*time.Millisecond)
	if err != nil {
		return nil, err
	}
	return netsim.RunOverlay(in.s, netsim.Config{
		Receivers:       in.receivers,
		Delay:           gauss,
		SendInterval:    10 * time.Millisecond,
		Start:           time.Unix(0, 0),
		Seed:            in.seed,
		ReliableIndices: []uint32{uint32(in.s.BlockSize())},
		Workers:         workers,
	}, netsim.OverlayConfig{Tree: tree, Relays: true, RepairRTT: 40 * time.Millisecond}, 1, in.payloads)
}

// overlayDigest hashes everything deterministic an overlay run reports.
func overlayDigest(res *netsim.OverlayResult) (digest [sha256.Size]byte, err error) {
	h := sha256.New()
	var buf []byte
	for i := range res.PerReceiver {
		rep := &res.PerReceiver[i]
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(rep.Delivered))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(rep.Lost))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(rep.Stats.Authenticated))
		for _, verified := range rep.VerifiedByIndex {
			if verified {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
		h.Write(buf)
	}
	if err := json.NewEncoder(h).Encode([]any{res.Relays, res.Flagged}); err != nil {
		return digest, err
	}
	h.Sum(digest[:0])
	return digest, nil
}

// overheadPerPacket is the paper's communication overhead as the overlay
// run measured it: authentication bytes per packet delivered, over all
// receivers. Per delivered packet and not per authenticated message: which
// few packets the one lossy edge drops decides how much authenticates, and
// would make the figure follow the seed's luck.
func (in *sweepInst) overheadPerPacket(res *netsim.OverlayResult) float64 {
	var bytes, delivered float64
	for i := range res.PerReceiver {
		for idx, got := range res.PerReceiver[i].ReceivedByIndex {
			if got {
				bytes += float64(in.overhead[idx])
				delivered++
			}
		}
	}
	return ratio(bytes, delivered)
}

func (in *sweepInst) measure(dur time.Duration) (*measurement, error) {
	m := newMeasurement()
	clk := clock{time.Now()}
	tb := in.tr.buf()
	var (
		iterations        []sample
		figuresNS, overNS []float64
		overhead          float64
	)
	s0 := snapProc(in.tr != nil)
	for i := uint64(0); i == 0 || clk.now() < int64(dur); i++ {
		t0 := clk.now()
		figures, err := in.renderFigures(0)
		if err != nil {
			return nil, err
		}
		t1 := clk.now()
		res, err := in.overlay(0)
		if err != nil {
			return nil, err
		}
		t2 := clk.now()
		iterations = append(iterations, sample{t2, t2 - t0})
		figuresNS = append(figuresNS, float64(t1-t0))
		overNS = append(overNS, float64(t2-t1))
		if tb != nil {
			tb.add(kFigures, kNone, i, t0, t1)
			tb.add(kOverlay, kNone, i, t1, t2)
		}
		overlay, err := overlayDigest(res)
		if err != nil {
			return nil, err
		}
		m.attempted += 2
		if figures != in.wantFigures {
			m.failed++
		}
		if overlay != in.wantOverlay {
			m.failed++
		}
		overhead = in.overheadPerPacket(res)
	}
	s1 := snapProc(in.tr != nil)
	n := float64(len(iterations))
	m.e2e["throughput_per_s"] = n / s1.at.Sub(s0.at).Seconds()
	m.e2e["latency_p50_ms"] = quantile(sortedDurations(iterations), 0.5) / 1e6
	m.e2e["latency_p99_ms"] = tail(iterations, 0) / 1e6
	m.e2e["cpu_us_per_op"] = cpuPerOp(s0, s1, n)
	m.e2e["overhead_bytes_per_msg"] = overhead
	if in.tr == nil {
		return m, nil
	}
	procLayer(m.layer, s0, s1, n)
	m.layer["netsim.overlay_s"] = median(overNS) / 1e9
	m.layer["parallel.runall_speedup"] = ratio(float64(in.refFigures), median(figuresNS))
	return m, nil
}

// sweepRungs times, once each within budget, the pieces a sweep iteration
// is made of.
func sweepRungs(p params, budget time.Duration, m *measurement) {
	l, fail := m.layer, failer(m)
	experiments.Workers = 0
	var figs float64
	named := map[string]bool{"validate": true, "bounds": true, "burst": true, "latejoin": true, "sigloss": true, "construct": true, "fig10": true}
	for _, e := range experiments.All() {
		if p.tiny && e.ID != "fig10" && named[e.ID] {
			continue
		}
		t0 := time.Now()
		fail(e.Run(io.Discard))
		ms := float64(time.Since(t0)) / 1e6
		if named[e.ID] {
			l["experiments.ms."+e.ID] = ms
		} else {
			figs += ms
		}
	}
	l["experiments.figs_ms"] = figs
	each := budget / 4

	graphOf := func(n int) (scheme.Scheme, *depgraph.Graph, error) {
		s, err := emss.New(emss.Config{N: n, M: 2, D: 1}, crypto.NewSignerFromString("bench"))
		if err != nil {
			return nil, nil, err
		}
		g, err := s.Graph()
		return s, g, err
	}
	s, g, err := graphOf(100)
	if fail(err) {
		return
	}
	rng := stats.NewRNG(p.seed)
	pattern := depgraph.BernoulliPatternInto(0.2)
	const trials = 2000
	l["depgraph.mc_ns_per_trial"] = rung(each, 1, func() {
		_, err := g.MonteCarloAuthProbInto(pattern, trials, rng, depgraph.MCOptions{})
		fail(err)
	}) / trials

	exactN := 18
	if p.tiny {
		exactN = 10
	}
	_, small, err := graphOf(exactN)
	if fail(err) {
		return
	}
	l["depgraph.exact_ms"] = rung(each, 1, func() {
		_, err := small.ExactAuthProb(0.2)
		fail(err)
	}) / 1e6

	bursty, err := loss.NewGilbertElliott(0.05, 0.25, 0, 1)
	if fail(err) {
		return
	}
	received := make([]bool, 1025)
	l["loss.sample_ns_per_pkt"] = rung(each, 1, func() { bursty.SampleInto(rng, received) }) / 1024

	flat, err := loss.NewBernoulli(0.1)
	if fail(err) {
		return
	}
	const receivers = 500
	payloads := make([][]byte, s.BlockSize())
	for i := range payloads {
		payloads[i] = make([]byte, payloadSize)
	}
	cfg := netsim.Config{
		Receivers: receivers, Loss: flat, Delay: delay.Constant{D: time.Millisecond},
		SendInterval: time.Millisecond, Start: time.Unix(0, 0), Seed: p.seed,
	}
	l["netsim.run_ns_per_rcv_pkt"] = rung(each, 1, func() {
		_, err := netsim.Run(s, cfg, 1, payloads)
		fail(err)
	}) / float64(receivers*s.WireCount())
}
