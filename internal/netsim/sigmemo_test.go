package netsim

import (
	"sync/atomic"
	"testing"

	"mcauth/internal/obs"
	"mcauth/internal/scheme"
	"mcauth/internal/stats"
)

// scriptedLoss hands the k-th receiver to sample it the k-th pattern.
type scriptedLoss struct {
	patterns [][]bool
	next     atomic.Int64
}

func (l *scriptedLoss) SampleInto(_ *stats.RNG, received []bool) {
	copy(received, l.patterns[int(l.next.Add(1)-1)%len(l.patterns)])
}

func (l *scriptedLoss) Rate() float64 { return 0 }
func (l *scriptedLoss) Name() string  { return "scripted" }

// TestSharedSigMemoKeepsReceiversIndependent runs receivers with different
// loss patterns behind the one run memo and holds each to the dependence
// graph over its own received set: a receiver that got the signature packet
// and none of its chain authenticates the signature packet alone, and one
// that got the whole chain without the signature authenticates nothing, even
// though the receiver before it put that signature's verdict in the memo.
func TestSharedSigMemoKeepsReceiversIndependent(t *testing.T) {
	for _, e := range chaosEntries(t) {
		s := e.Scheme
		mapper, ok := s.(scheme.VertexMapper)
		if !ok {
			continue // TESLA: a wire packet is two vertices
		}
		payloads := testPayloads(s.BlockSize())
		pkts, err := s.Authenticate(1, payloads)
		if err != nil {
			t.Fatal(err)
		}
		g, err := s.Graph()
		if err != nil {
			t.Fatal(err)
		}
		isSig := make(map[uint32]bool)
		for _, idx := range e.Signature {
			isSig[idx] = true
		}
		n := len(pkts)
		all, sigOnly, chainOnly := make([]bool, n+1), make([]bool, n+1), make([]bool, n+1)
		signedWires := 0
		for w, p := range pkts {
			all[w+1], sigOnly[w+1], chainOnly[w+1] = true, isSig[p.Index], !isSig[p.Index]
			if len(p.Signature) > 0 {
				signedWires++
			}
		}
		patterns := [][]bool{all, sigOnly, chainOnly}
		rng := stats.NewRNG(23)
		for len(patterns) < 40 {
			pat := make([]bool, n+1)
			for w := 1; w <= n; w++ {
				pat[w] = !rng.Bernoulli(0.3)
			}
			patterns = append(patterns, pat)
		}

		for _, workers := range []int{1, 4} {
			reg := obs.NewRegistry()
			cfg := baseConfig(t, 0, len(patterns))
			cfg.Loss = &scriptedLoss{patterns: patterns}
			cfg.SendInterval, cfg.Start = e.SendInterval, e.Start
			cfg.Workers, cfg.Metrics = workers, reg
			res, err := Run(s, cfg, 1, payloads)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			sawSigOnly, sawChainOnly := false, false
			for r := range res.PerReceiver {
				rep := &res.PerReceiver[r]
				received := make([]bool, g.N()+1)
				rootArrived, chainArrived := false, false
				for _, p := range pkts {
					if !rep.Received(p.Index) {
						continue
					}
					if v, mapped := mapper.VertexOf(p.Index); mapped {
						received[v] = true
					}
					rootArrived = rootArrived || len(p.Signature) > 0
					chainArrived = chainArrived || !isSig[p.Index]
				}
				verifiable := make([]bool, g.N()+1)
				if rootArrived {
					if verifiable, err = g.VerifiableSet(received); err != nil {
						t.Fatal(err)
					}
				}
				authed := 0
				for _, p := range pkts {
					v, mapped := mapper.VertexOf(p.Index)
					want := mapped && received[v] && verifiable[v]
					if rep.Verified(p.Index) != want {
						t.Errorf("%s, %d workers, receiver %d, index %d: verified %v, its own received set makes it %v",
							s.Name(), workers, r, p.Index, rep.Verified(p.Index), want)
					}
					if want {
						authed++
					}
				}
				if len(e.Signature) > 0 && rootArrived && !chainArrived {
					sawSigOnly = true
					if authed != len(e.Signature) {
						t.Errorf("%s: signature-only receiver %d authenticated %d packets", s.Name(), r, authed)
					}
				}
				if len(e.Signature) > 0 && !rootArrived && chainArrived {
					sawChainOnly = true
					if rep.Stats.Authenticated != 0 {
						t.Errorf("%s: receiver %d never got the signature and authenticated %d packets", s.Name(), r, rep.Stats.Authenticated)
					}
				}
			}
			if len(e.Signature) > 0 && (!sawSigOnly || !sawChainOnly) {
				t.Errorf("%s: scripted patterns are vacuous: signature-only %v, chain-only %v", s.Name(), sawSigOnly, sawChainOnly)
			}
			counters := reg.Snapshot().Counters
			hits, misses := counters["netsim.sig_memo_hits"], counters["netsim.sig_memo_misses"]
			if hits == 0 {
				t.Errorf("%s, %d workers: the run memo never hit", s.Name(), workers)
			}
			if workers == 1 && misses > int64(signedWires) {
				t.Errorf("%s: %d public-key checks for %d signed wire packets", s.Name(), misses, signedWires)
			}
		}
	}
}
