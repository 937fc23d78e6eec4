package depgraph

import (
	"fmt"
	"math"
	"math/bits"

	"mcauth/internal/parallel"
	"mcauth/internal/stats"
)

// ReceiveLanes samples loss patterns 64 at a time, in the layout the
// Monte-Carlo kernel propagates: bit t of recv[i] says packet i arrived in
// pattern t (recv has n+1 words; word 0 is unused). It draws a fresh
// pattern into every lane set in lanes and leaves the other bits of every
// word alone. It is the kernel's one sampler form: BernoulliPatternInto and
// loss.PatternInto sample the lanes natively, with bit-sliced coins
// (stats.(*RNG).FlipLanes), and PerTrial adapts any per-trial sampler.
type ReceiveLanes func(rng *stats.RNG, recv []uint64, lanes uint64)

// PerTrial adapts a per-trial sampler to the kernel: one pattern per lane of
// lanes, lowest lane first, each sampled into a scratch (one per call, so
// per 64 trials) and packed into its lane. The sampler fills
// received[1..len(received)-1], as loss.Model.SampleInto does. Trials are
// drawn in trial order from the shard's generator, so the estimate is the
// one the sampler's own stream gives, trial by trial.
func PerTrial(sample func(rng *stats.RNG, received []bool)) ReceiveLanes {
	return func(rng *stats.RNG, recv []uint64, lanes uint64) {
		received := make([]bool, len(recv))
		for ; lanes != 0; lanes &= lanes - 1 {
			t := bits.TrailingZeros64(lanes)
			sample(rng, received)
			// Index 0, no packet, rides along: nothing reads its word.
			for i, arrived := range received {
				var bit uint64
				if arrived {
					bit = 1
				}
				recv[i] = recv[i]&^(1<<t) | bit<<t
			}
		}
	}
}

// BernoulliPatternInto samples the patterns where each packet is lost
// independently with probability p (the paper's Section 4.1 network model)
// into the kernel's lanes: one bit-sliced flip of 64 coins per packet.
func BernoulliPatternInto(p float64) ReceiveLanes {
	lose := stats.NewCoin(p)
	return func(rng *stats.RNG, recv []uint64, lanes uint64) {
		for i := 1; i < len(recv); i++ {
			recv[i] = recv[i]&^lanes | lanes&^rng.FlipLanes(lose, lose, 0)
		}
	}
}

// VerifiableSet computes, for a given loss pattern, exactly which received
// packets are verifiable: P_i is verifiable iff it is received and there is
// a path from P_sign to P_i whose vertices are all received (condition (1)
// of the paper, with condition (2) holding identically for hash-chained
// schemes). The root is treated as received regardless of the pattern:
// the Forced rule of a Delivery.
//
// received must have length n+1 (index 0 ignored).
func (g *Graph) VerifiableSet(received []bool) ([]bool, error) {
	verifiable := make([]bool, g.n+1)
	if _, err := g.VerifiableSetInto(received, verifiable, nil); err != nil {
		return nil, err
	}
	return verifiable, nil
}

// VerifiableSetInto is the scratch-reuse form of VerifiableSet: it writes
// the result into verifiable (length n+1, overwritten) and uses queue as
// BFS scratch, returning the possibly-grown queue for the next call. A
// Monte-Carlo trial loop that reuses both performs zero allocations per
// trial once the scratch has reached steady-state capacity.
func (g *Graph) VerifiableSetInto(received, verifiable []bool, queue []int) ([]int, error) {
	if len(received) != g.n+1 {
		return queue, fmt.Errorf("depgraph: received slice length %d, want %d", len(received), g.n+1)
	}
	if len(verifiable) != g.n+1 {
		return queue, fmt.Errorf("depgraph: verifiable slice length %d, want %d", len(verifiable), g.n+1)
	}
	clear(verifiable)
	verifiable[g.root] = true
	queue = append(queue[:0], g.root)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.out[v] {
			if verifiable[w] || !received[w] {
				continue
			}
			verifiable[w] = true
			queue = append(queue, w)
		}
	}
	return queue, nil
}

// AuthResult reports estimated (or exact) per-packet authentication
// probabilities q_i = Pr{P_i verifiable | P_i received} and the block
// minimum q_min over non-root packets.
type AuthResult struct {
	Q    []float64 // Q[i] for packets 1..n; Q[0] unused (set to NaN)
	QMin float64
	// ReceivedCounts and VerifiedCounts are populated by Monte-Carlo
	// estimation (zero for exact computation) so callers can build
	// confidence intervals.
	ReceivedCounts []int
	VerifiedCounts []int
}

// MCOptions tunes the Monte-Carlo execution plan.
//
// The trial budget is split into fixed shards of ShardSize trials; each
// shard draws an independent RNG stream derived from the caller's
// generator by Split, in shard order. Because the shard plan depends only
// on (trials, ShardSize) — never on Workers — and per-packet counts are
// additive, the merged AuthResult is bit-identical for a given seed and
// shard plan regardless of how many workers ran the shards.
type MCOptions struct {
	// Workers bounds the worker pool; <= 0 selects GOMAXPROCS workers.
	Workers int
	// ShardSize is the number of trials per shard; <= 0 selects
	// defaultMCShardSize. Changing it changes the sample streams (and so
	// the estimate), exactly like changing the seed would.
	ShardSize int
	// Root is the signature packet's fate, a Delivery's root rule; the
	// zero value forces it. Under Conditioned the channel must deliver
	// the root with positive probability.
	Root Root
}

// defaultMCShardSize is the default trials-per-shard: small enough that
// typical trial budgets (10^3..10^5) spread across every core, large
// enough that per-shard scratch setup is amortized to noise.
const defaultMCShardSize = 512

// mcShard is one unit of the deterministic execution plan: an independent
// RNG stream and a trial count.
type mcShard struct {
	rng    *stats.RNG
	trials int
}

// mcCounts are one shard's per-packet tallies.
type mcCounts struct {
	recv []int
	ver  []int
}

// laneTrials is how many trials one machine word carries: trial t of a group
// is bit t of every vertex's word.
const laneTrials = 64

// verifiableLanes is VerifiableSetInto for 64 loss patterns at once. Bit t
// of recv[v] says packet v arrived in pattern t; on return bit t of ver[v]
// says v is verifiable in pattern t. The predicate is pure AND/OR — v is
// verifiable iff it arrived and some in-neighbour is verifiable — so one
// ver[w] |= ver[v] & recv[w] per edge settles all 64 patterns. The root's
// word is taken as given, not forced to all ones: a lane the caller left out
// of recv[root] stays empty everywhere, which is how a short last group is
// masked. order and topological come from orderFromRoot: in a topological
// order one pass reaches the fixpoint; otherwise (a cycle, which AddEdge does
// not reject) passes repeat until none adds a bit, which is the same set the
// scalar search reaches.
func (g *Graph) verifiableLanes(order []int, topological bool, recv, ver []uint64) {
	clear(ver)
	ver[g.root] = recv[g.root]
	for {
		var added uint64
		for _, v := range order {
			from := ver[v]
			if from == 0 {
				continue
			}
			for _, w := range g.out[v] {
				add := from & recv[w] &^ ver[w]
				ver[w] |= add
				added |= add
			}
		}
		if topological || added == 0 {
			return
		}
	}
}

// MonteCarloAuthProbInto estimates q_i for every packet from trials loss
// patterns drawn by sample, the channel's own, with the signature packet's
// fate set by opts.Root (rootLanes), propagating verifiability through the
// graph. Trials run on the shared worker pool (see MCOptions): each worker
// keeps one pair of lane words per vertex for its whole shard, and the
// shard's sampler draws 64 trials at a time into them (trial t of a group
// is lane t) from the shard's own generator — the result is a function of
// (seed, trials, shard size) only — which verifiableLanes then propagates
// and the shard tallies 64 to a word. A native lane sampler makes the trial
// loop allocation-free under Forced and Conditioned.
func (g *Graph) MonteCarloAuthProbInto(sample ReceiveLanes, trials int, rng *stats.RNG, opts MCOptions) (AuthResult, error) {
	if trials <= 0 {
		return AuthResult{}, fmt.Errorf("depgraph: trials %d must be positive", trials)
	}
	if sample == nil {
		return AuthResult{}, fmt.Errorf("depgraph: nil receive pattern")
	}
	if opts.Root < Conditioned {
		return AuthResult{}, fmt.Errorf("depgraph: root rule %d", opts.Root)
	}
	sample = g.rootLanes(opts.Root, sample)
	shardSize := opts.ShardSize
	if shardSize <= 0 {
		shardSize = defaultMCShardSize
	}
	// Build the shard plan up front: all use of the caller's rng happens
	// here, sequentially, so the caller's generator advances identically
	// for any worker count.
	shards := make([]mcShard, 0, (trials+shardSize-1)/shardSize)
	for remaining := trials; remaining > 0; remaining -= shardSize {
		shards = append(shards, mcShard{rng: rng.Split(), trials: min(shardSize, remaining)})
	}
	order, topological := g.orderFromRoot()
	// No shard can fail, so Map's error is always nil.
	counts, _ := parallel.Map(opts.Workers, shards, func(_ int, sh mcShard) (mcCounts, error) {
		c := mcCounts{recv: make([]int, g.n+1), ver: make([]int, g.n+1)}
		lanes := make([]uint64, 2*(g.n+1))
		recv, ver := lanes[:g.n+1], lanes[g.n+1:]
		for done := 0; done < sh.trials; done += laneTrials {
			group := ^uint64(0) >> (laneTrials - min(laneTrials, sh.trials-done))
			clear(recv)
			sample(sh.rng, recv, group)
			g.verifiableLanes(order, topological, recv, ver)
			for i := 1; i <= g.n; i++ {
				c.recv[i] += bits.OnesCount64(recv[i])
				c.ver[i] += bits.OnesCount64(ver[i])
			}
		}
		return c, nil
	})
	// Merge in shard order. Integer addition is commutative, so any order
	// gives the same counts; fixed order keeps the code auditable.
	recvCount := make([]int, g.n+1)
	verCount := make([]int, g.n+1)
	for _, c := range counts {
		for i := 1; i <= g.n; i++ {
			recvCount[i] += c.recv[i]
			verCount[i] += c.ver[i]
		}
	}
	res := AuthResult{
		Q:              make([]float64, g.n+1),
		QMin:           1,
		ReceivedCounts: recvCount,
		VerifiedCounts: verCount,
	}
	res.Q[0] = math.NaN()
	for i := 1; i <= g.n; i++ {
		if recvCount[i] == 0 {
			// Never received in any trial; no conditional estimate.
			res.Q[i] = math.NaN()
			continue
		}
		res.Q[i] = float64(verCount[i]) / float64(recvCount[i])
		if res.Q[i] < res.QMin {
			res.QMin = res.Q[i]
		}
	}
	return res, nil
}

// Spread summarizes the distribution of per-packet authentication
// probabilities. The paper points out that q_i "may vary widely from
// packet to packet" depending on where hashes are placed, and that designs
// should minimize this variance by giving far-from-signature packets more
// paths; Spread makes that design criterion measurable.
func (r AuthResult) Spread() (stats.Summary, error) {
	var qs []float64
	for i := 1; i < len(r.Q); i++ {
		if !math.IsNaN(r.Q[i]) {
			qs = append(qs, r.Q[i])
		}
	}
	return stats.Summarize(qs)
}

// maxExactN bounds the block size for exact enumeration: 2^(n-1) patterns.
const maxExactN = 22

// ExactAuthProb computes q_i exactly for small blocks under i.i.d. loss
// with probability p, by enumerating all loss patterns of the non-root
// packets. It is the ground truth the analytic recurrences and the
// Monte-Carlo estimator are tested against. n must be <= 22.
func (g *Graph) ExactAuthProb(p float64) (AuthResult, error) {
	probs := make([]float64, g.n+1)
	for i := range probs {
		probs[i] = p
	}
	return g.ExactAuthProbVector(probs)
}

// ExactAuthProbVector computes q_i exactly under *heterogeneous* loss:
// packet i is lost independently with probability probs[i] (index 0
// unused). This models position-dependent loss — e.g. congestion building
// over a block, or priority-dropped packets. n must be <= 22.
func (g *Graph) ExactAuthProbVector(probs []float64) (AuthResult, error) {
	if g.n > maxExactN {
		return AuthResult{}, fmt.Errorf("depgraph: exact enumeration limited to n <= %d, got %d", maxExactN, g.n)
	}
	if len(probs) != g.n+1 {
		return AuthResult{}, fmt.Errorf("depgraph: %d loss probabilities, want %d", len(probs), g.n+1)
	}
	for i := 1; i <= g.n; i++ {
		if !(probs[i] >= 0 && probs[i] <= 1) { // spelled so that NaN fails
			return AuthResult{}, fmt.Errorf("depgraph: loss probability[%d] = %v out of [0,1]", i, probs[i])
		}
	}
	// Vertices other than the root, in fixed order, indexed by bit.
	others := make([]int, 0, g.n-1)
	for v := 1; v <= g.n; v++ {
		if v != g.root {
			others = append(others, v)
		}
	}
	probReceived := make([]float64, g.n+1)   // sum of pattern probs where i received
	probVerifiable := make([]float64, g.n+1) // ... and verifiable
	received := make([]bool, g.n+1)
	verifiable := make([]bool, g.n+1)
	queue := make([]int, 0, g.n)
	var err error
	patterns := 1 << len(others)
	for mask := 0; mask < patterns; mask++ {
		prob := 1.0
		for b, v := range others {
			if mask&(1<<b) != 0 {
				received[v] = true
				prob *= 1 - probs[v]
			} else {
				received[v] = false
				prob *= probs[v]
			}
		}
		received[g.root] = true
		queue, err = g.VerifiableSetInto(received, verifiable, queue)
		if err != nil {
			return AuthResult{}, err
		}
		for i := 1; i <= g.n; i++ {
			if received[i] {
				probReceived[i] += prob
				if verifiable[i] {
					probVerifiable[i] += prob
				}
			}
		}
	}
	return exactResult(probVerifiable, probReceived), nil
}

// exactResult turns Pr{i received and verifiable} and Pr{i received} into
// q_i and q_min. A packet that is never received (p == 1, not the root) has
// a conditioning event of probability zero; by convention q_i = 0 (the
// packet can never be verified).
func exactResult(verifiable, received []float64) AuthResult {
	res := AuthResult{Q: make([]float64, len(received)), QMin: 1}
	res.Q[0] = math.NaN()
	for i := 1; i < len(received); i++ {
		if received[i] > 0 {
			res.Q[i] = verifiable[i] / received[i]
		}
		res.QMin = min(res.QMin, res.Q[i])
	}
	return res
}
