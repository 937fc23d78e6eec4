package main

import (
	"bytes"
	"fmt"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/scheme"
	"mcauth/internal/scheme/augchain"
	"mcauth/internal/scheme/authtree"
	"mcauth/internal/scheme/emss"
	"mcauth/internal/scheme/rohatgi"
	"mcauth/internal/scheme/signeach"
	"mcauth/internal/scheme/tesla"
	"mcauth/internal/stats"
	"mcauth/internal/stream"
)

// recv_lossy replays a seeded lossy, duplicating, reordering wire into the
// verifiers, offline and on one goroutine. It is the verify layer used the
// way a best-effort network uses it: packets buffer unauthenticated,
// duplicates are discarded, blocks whose signature was lost are evicted,
// and TESLA recovers keys over gaps.
const (
	lossyBlocks = 64
	lossyN      = 128
	lossP       = 0.1
	dupP        = 0.05
	swapP       = 0.2
	swapWindow  = 8
	// lossyLive is how many blocks a replay receiver keeps live. Swaps
	// never carry a packet past the next block, so evicting the ninth
	// oldest block loses nothing: the oracle check below would show it.
	lossyLive = 8
)

var lossySchemes = []string{"rohatgi", "emss", "augchain", "authtree", "tesla"}

// benchScheme is bench_test.go's shape of each scheme at block size n,
// with a plain signer.
func benchScheme(name string, n int) (scheme.Scheme, error) {
	signer := crypto.NewSignerFromString("bench")
	switch name {
	case "rohatgi":
		return rohatgi.New(n, signer)
	case "emss":
		return emss.New(emss.Config{N: n, M: 2, D: 1}, signer)
	case "augchain":
		return augchain.New(augchain.Config{N: n, A: 3, B: 3}, signer)
	case "authtree":
		return authtree.New(n, signer)
	case "signeach":
		return signeach.New(n, signer)
	case "tesla":
		return tesla.New(tesla.Config{
			N: n, Lag: 4, Interval: time.Millisecond,
			Start: time.Unix(0, 0), Seed: []byte("bench"),
		}, signer)
	}
	return nil, fmt.Errorf("unknown scheme %q", name)
}

// wirePacket is one datagram as the lossy wire delivers it.
type wirePacket struct {
	wire     []byte
	at       time.Time // virtual arrival, which TESLA's safety condition reads
	overhead int       // wire bytes that are not payload
}

// replay is one scheme's input and expected output.
type replay struct {
	name      string
	s         scheme.Scheme
	wireCount int
	sent      int // data packets sent, delivered or not
	packets   []wirePacket
	// payloads is every sent payload by block*wireCount + wire index - 1.
	payloads [][]byte
	// want marks, in the same order, what the dependence graph says is
	// verifiable from the delivered set; nil for schemes whose wire
	// indices are not graph vertices (TESLA), which are held to repeat
	// the first pass exactly instead.
	want []byte
	got  []byte

	ns, ingested, authenticated int64
}

func setupLossy(p params, tr *tracer) (instance, error) {
	in := &lossyInst{tr: tr}
	blocks, n := lossyBlocks, lossyN
	if p.tiny {
		blocks, n = 4, 16
	}
	gen := newPayloadGen(p.seed)
	rng := stats.NewRNG(p.seed ^ 0x6c6f737379)
	for _, name := range lossySchemes {
		rp, err := newReplay(name, blocks, n, gen, rng.Split())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		in.replays = append(in.replays, rp)
	}
	return in, nil
}

func newReplay(name string, blocks, n int, gen payloadGen, rng *stats.RNG) (*replay, error) {
	s, err := benchScheme(name, n)
	if err != nil {
		return nil, err
	}
	rp := &replay{name: name, s: s, wireCount: s.WireCount(), sent: blocks * n}
	rp.payloads = make([][]byte, blocks*rp.wireCount)
	rp.got = make([]byte, len(rp.payloads))
	g, err := s.Graph()
	if err != nil {
		return nil, err
	}
	mapper, mapped := s.(scheme.VertexMapper)
	if mapped {
		rp.want = make([]byte, len(rp.payloads))
	}
	received := make([]bool, g.N()+1)
	verifiable := make([]bool, g.N()+1)
	var queue []int
	for b := 0; b < blocks; b++ {
		payloads := make([][]byte, n)
		for i := range payloads {
			payloads[i] = gen.fill[(b*n+i)%fillers]
		}
		pkts, err := s.Authenticate(uint64(b), payloads)
		if err != nil {
			return nil, err
		}
		clear(received)
		rootArrived := false
		var delivered []wirePacket
		for w, pkt := range pkts {
			rp.payloads[b*rp.wireCount+int(pkt.Index)-1] = pkt.Payload
			// Bernoulli loss, signature packets included.
			if rng.Bernoulli(lossP) {
				continue
			}
			wire, err := pkt.Encode()
			if err != nil {
				return nil, err
			}
			at := time.Unix(0, 0).Add(time.Duration(w)*time.Millisecond + time.Microsecond)
			wp := wirePacket{wire, at, len(wire) - len(pkt.Payload)}
			delivered = append(delivered, wp)
			if rng.Bernoulli(dupP) {
				delivered = append(delivered, wp)
			}
			if !mapped {
				continue
			}
			if v, ok := mapper.VertexOf(pkt.Index); ok {
				received[v] = true
			}
			rootArrived = rootArrived || len(pkt.Signature) > 0
		}
		rp.packets = append(rp.packets, delivered...)
		// The paper's condition (1): a delivered packet authenticates iff
		// a path of delivered packets leads to it from a delivered
		// signature. VerifiableSet assumes the signature arrived.
		if !mapped || !rootArrived {
			continue
		}
		if queue, err = g.VerifiableSetInto(received, verifiable, queue); err != nil {
			return nil, err
		}
		for _, pkt := range pkts {
			if v, ok := mapper.VertexOf(pkt.Index); ok && received[v] && verifiable[v] {
				rp.want[b*rp.wireCount+int(pkt.Index)-1] = 1
			}
		}
	}
	// Adjacent swaps, never across a window edge, so no packet moves more
	// than a window from where it was sent.
	for i := 0; i+1 < len(rp.packets); i++ {
		if i%swapWindow != swapWindow-1 && rng.Bernoulli(swapP) {
			rp.packets[i], rp.packets[i+1] = rp.packets[i+1], rp.packets[i]
		}
	}
	return rp, nil
}

type lossyInst struct {
	tr      *tracer
	replays []*replay
}

func (in *lossyInst) close() {}

// pass replays rp once into a fresh receiver, checking every authenticated
// payload against the one sent, and returns the failures it found. Every
// block's worth of delivered packets it records how long they took.
func (rp *replay) pass(clk clock, first bool, latency *[]sample) (failed int64, err error) {
	rcv, err := stream.NewReceiver(rp.s, lossyLive)
	if err != nil {
		return 0, err
	}
	clear(rp.got)
	var authenticated int64
	stride := rp.s.BlockSize()
	began := clk.now()
	mark := began
	for i, wp := range rp.packets {
		auths, err := rcv.IngestWire(wp.wire, wp.at)
		if err != nil {
			return 0, err
		}
		for _, a := range auths {
			authenticated++
			slot := int(a.BlockID)*rp.wireCount + int(a.Index) - 1
			if a.Index < 1 || slot >= len(rp.payloads) || !bytes.Equal(a.Payload, rp.payloads[slot]) {
				failed++
				continue
			}
			rp.got[slot]++
		}
		if (i+1)%stride == 0 {
			now := clk.now()
			*latency = append(*latency, sample{now, now - mark})
			mark = now
		}
	}
	rp.ns += clk.now() - began
	rp.ingested += int64(len(rp.packets))
	switch {
	case rp.want != nil:
		// Soundness and completeness against the dependence graph.
		if !bytes.Equal(rp.got, rp.want) {
			failed++
		}
	case !first && authenticated != rp.authenticated:
		failed++
	}
	rp.authenticated = authenticated
	return failed, nil
}

func (in *lossyInst) measure(dur time.Duration) (*measurement, error) {
	m := newMeasurement()
	clk := clock{time.Now()}
	tb := in.tr.buf()
	var latency []sample
	s0 := snapProc(in.tr != nil)
	for pass := uint64(0); pass == 0 || clk.now() < int64(dur); pass++ {
		for _, rp := range in.replays {
			t0 := clk.now()
			failed, err := rp.pass(clk, pass == 0, &latency)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", rp.name, err)
			}
			if tb != nil {
				tb.add(kPass, kNone, pass, t0, clk.now())
			}
			// One check per authenticated payload, one per pass on the
			// authenticated set.
			m.attempted += rp.authenticated + 1
			m.failed += failed
		}
	}
	s1 := snapProc(in.tr != nil)
	var ns, ingested, delivered, overhead float64
	for _, rp := range in.replays {
		ns += float64(rp.ns)
		ingested += float64(rp.ingested)
		delivered += float64(len(rp.packets))
		for _, wp := range rp.packets {
			overhead += float64(wp.overhead)
		}
	}
	m.e2e["throughput_per_s"] = ratio(ingested, ns/1e9)
	m.e2e["latency_p50_ms"] = quantile(sortedDurations(latency), 0.5) / 1e6
	m.e2e["latency_p99_ms"] = tail(latency, 0) / 1e6
	m.e2e["cpu_us_per_op"] = cpuPerOp(s0, s1, ingested)
	// Per delivered packet, not per authenticated message: what a lost
	// signature costs its block is throughput's to show, and would
	// otherwise make this figure follow the seed's luck.
	m.e2e["overhead_bytes_per_msg"] = ratio(overhead, delivered)
	if in.tr == nil {
		return m, nil
	}
	for _, rp := range in.replays {
		m.layer["verifier.lossy_ns_per_pkt."+rp.name] = ratio(float64(rp.ns), float64(rp.ingested))
		m.layer["verifier.auth_fraction."+rp.name] = ratio(float64(rp.authenticated), float64(rp.sent))
	}
	procLayer(m.layer, s0, s1, ingested)
	return m, nil
}
