// Package netsim simulates the paper's network substrate: a single source
// multicasting an authenticated packet stream to many receivers over
// best-effort links with per-receiver random loss and random end-to-end
// delay (Section 4.1). The simulator is a per-receiver discrete-event run:
// packets are stamped with send times, each receiver's copies are dropped
// or delayed independently, delivered in arrival order (so reordering
// emerges naturally from delay jitter), and fed to the scheme's verifier.
// Receivers run concurrently.
//
// It substitutes for the paper's unavailable testbed (the Internet): the
// loss and delay models are exactly the ones the paper's analysis assumes,
// which is what makes measured-vs-analytic comparison meaningful.
//
// Runs are observable: set Config.Tracer to record every packet's
// lifecycle (sent, dropped, delivered, buffered, authenticate, ...) as
// attributed trace records, and Config.Metrics to aggregate netsim.* and
// verifier.* instruments. Both default to off and cost nothing when off.
package netsim

import (
	"fmt"
	"slices"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/delay"
	"mcauth/internal/depgraph"
	"mcauth/internal/fault"
	"mcauth/internal/loss"
	"mcauth/internal/obs"
	"mcauth/internal/packet"
	"mcauth/internal/parallel"
	"mcauth/internal/scheme"
	"mcauth/internal/stats"
	"mcauth/internal/verifier"
)

// Config parameterizes a simulation run.
type Config struct {
	// Receivers is the number of independent receivers.
	Receivers int
	// Loss is the per-receiver loss channel.
	Loss loss.Model
	// Delay is the per-packet end-to-end delay model.
	Delay delay.Model
	// SendInterval spaces consecutive wire packets at the sender.
	SendInterval time.Duration
	// Start is the send time of the block's first wire packet. Signature
	// copies sent ahead of it (SigRetransmits) go out before Start, so the
	// block keeps its own schedule (TESLA's T0).
	Start time.Time
	// Seed makes the run reproducible.
	Seed uint64
	// ReliableIndices and SigRetransmits carry a root rule (SetRoot; the
	// "Delivery" table in DESIGN.md): the listed wire indices, P_sign
	// first, are never lost, or with SigRetransmits > 0 are sent that many
	// more times, back to back ahead of a signature packet that is first
	// in send order and after the block otherwise, every copy lost like
	// any packet.
	ReliableIndices []uint32
	SigRetransmits  int
	// Faults, when non-nil and enabled, passes every surviving delivery
	// through a seeded adversarial channel (internal/fault): corruption,
	// truncation, duplication, forged-packet injection, reorder spikes
	// and sender stalls. Each receiver draws its own fault stream from
	// the run seed, so adversarial runs stay reproducible.
	Faults *fault.Config
	// MaxBuffered, when > 0, caps every receiver verifier's pending-
	// packet buffer (verifier.Env.MaxBuffered) so adversarial floods
	// cannot grow memory without bound.
	MaxBuffered int
	// LateJoiners is how many of the Receivers join mid-stream (the
	// paper's long-lived sessions where "recipients join and leave
	// frequently"): each late joiner starts at a uniformly random wire
	// position and misses everything sent before it — including
	// ReliableIndices packets, since it was not yet subscribed.
	LateJoiners int
	// Workers bounds how many receivers are simulated concurrently; <= 0
	// selects GOMAXPROCS. Each receiver's RNG stream is
	// derived before the concurrent phase, so results do not depend on
	// this setting.
	Workers int
	// Tracer, when non-nil, receives every packet-lifecycle record of the
	// run with per-receiver attribution.
	Tracer *obs.SpanSink
	// Metrics, when non-nil, aggregates netsim.* counters and the
	// verifiers' instruments across all receivers.
	Metrics *obs.Registry
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Receivers < 1 {
		return fmt.Errorf("netsim: receivers %d must be >= 1", c.Receivers)
	}
	if c.Loss == nil {
		return fmt.Errorf("netsim: nil loss model")
	}
	if c.Delay == nil {
		return fmt.Errorf("netsim: nil delay model")
	}
	if c.SendInterval <= 0 {
		return fmt.Errorf("netsim: send interval %v must be positive", c.SendInterval)
	}
	if c.LateJoiners < 0 || c.LateJoiners > c.Receivers {
		return fmt.Errorf("netsim: late joiners %d out of [0,%d]", c.LateJoiners, c.Receivers)
	}
	if c.SigRetransmits < 0 || c.SigRetransmits > maxSigRetransmits {
		return fmt.Errorf("netsim: sig retransmits %d out of [0,%d]", c.SigRetransmits, maxSigRetransmits)
	}
	if c.MaxBuffered < 0 {
		return fmt.Errorf("netsim: max buffered %d must be >= 0", c.MaxBuffered)
	}
	if c.Workers < 0 {
		return fmt.Errorf("netsim: workers %d must be >= 0", c.Workers)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return fmt.Errorf("netsim: %w", err)
		}
	}
	return nil
}

// SetRoot sets how the signature wires sig reach a receiver under root:
// never lost (Forced), or sent k+1 times back to back where depgraph.Root
// places the copies, each lost like any packet (Copies(k)). A simulated
// receiver cannot condition on what it receives, so Conditioned is
// refused.
func (c *Config) SetRoot(sig []uint32, root depgraph.Root) error {
	switch root {
	case depgraph.Conditioned:
		return fmt.Errorf("netsim: a simulated run cannot condition on the signature packet arriving")
	case depgraph.Copies(0):
		sig = nil
	}
	c.ReliableIndices, c.SigRetransmits = sig, root.Copies()
	return nil
}

// maxSigRetransmits bounds the copies. Under i.i.d. loss the residual loss
// p^(k+1) is negligible past a handful; under bursty loss one burst can take
// adjacent copies together, and past two or three each extra copy barely
// lowers it.
const maxSigRetransmits = 8

// ReceiverReport summarizes one receiver's run.
type ReceiverReport struct {
	Delivered int
	Lost      int
	// JoinedAtWire is the first wire index this receiver was subscribed
	// for (1 = from the start).
	JoinedAtWire int
	// Verifier counters (authenticated, rejected, unsafe, buffers). The
	// receiver's latencies are in Result.TimeToAuth, with every other's.
	Stats verifier.Counts
	// ReceivedByIndex and VerifiedByIndex are per-wire-index outcomes,
	// indexed by packet index (1-based; slot 0 is unused). They are
	// slices rather than maps because the wire count is known up front —
	// no per-packet map allocation in the receiver hot loop, and
	// iteration order is deterministic. Use the Received / Verified
	// accessors for bounds-safe lookups.
	ReceivedByIndex []bool
	VerifiedByIndex []bool
	// Repaired counts packets this receiver lost on its last hop but
	// recovered via a NACK signature repair served by its local relay.
	// Always zero for flat (non-overlay) runs and overlay runs with
	// relays off.
	Repaired int
	// Adversarial-channel tallies, populated only when Config.Faults is
	// enabled. Corrupted/Truncated count mutated genuine deliveries,
	// Duplicated counts extra copies, ForgedInjected counts fabricated
	// packets reaching the verifier. ForgedRejected counts forgeries the
	// verifier refused at ingest; ForgedAuthenticated counts forged
	// payloads that authenticated — the security invariant is that it is
	// always zero. InvalidDeliveries counts decodable deliveries the
	// verifier refused outright (e.g. out-of-range index after a bit
	// flip), tolerated under faults rather than treated as fatal.
	Corrupted           int
	Truncated           int
	Duplicated          int
	ForgedInjected      int
	ForgedRejected      int
	ForgedAuthenticated int
	InvalidDeliveries   int
}

// Received reports whether the packet with the given index arrived. It is
// the bounds-safe accessor over ReceivedByIndex.
func (r *ReceiverReport) Received(index uint32) bool {
	return int(index) < len(r.ReceivedByIndex) && r.ReceivedByIndex[index]
}

// Verified reports whether the packet with the given index authenticated.
func (r *ReceiverReport) Verified(index uint32) bool {
	return int(index) < len(r.VerifiedByIndex) && r.VerifiedByIndex[index]
}

// Result aggregates a run.
type Result struct {
	WireCount   int
	PerReceiver []ReceiverReport
	// TimeToAuth merges every receiver verifier's arrival-to-authentication
	// histogram (verifier.Stats.TimeToAuth), in nanoseconds: the run's
	// measured receiver delay.
	TimeToAuth obs.HistogramData
}

// runMetrics caches the netsim.* instruments so receiver goroutines never
// touch the registry lock.
type runMetrics struct {
	sent           *obs.Counter
	dropped        *obs.Counter
	delivered      *obs.Counter
	outOfOrder     *obs.Counter
	corrupted      *obs.Counter
	truncated      *obs.Counter
	duplicated     *obs.Counter
	forgedInjected *obs.Counter
	forgedRejected *obs.Counter
}

// newRunMetrics registers the netsim.* instruments; the adversarial-channel
// counters are registered only for faulted runs so a fault-free registry
// dump is unchanged by this feature.
func newRunMetrics(reg *obs.Registry, faultsOn bool) *runMetrics {
	if reg == nil {
		return nil
	}
	m := &runMetrics{
		sent:       reg.Counter("netsim.sent"),
		dropped:    reg.Counter("netsim.dropped"),
		delivered:  reg.Counter("netsim.delivered"),
		outOfOrder: reg.Counter("netsim.delivered_out_of_order"),
	}
	if faultsOn {
		m.corrupted = reg.Counter("netsim.corrupted")
		m.truncated = reg.Counter("netsim.truncated")
		m.duplicated = reg.Counter("netsim.duplicated")
		m.forgedInjected = reg.Counter("netsim.forged_injected")
		m.forgedRejected = reg.Counter("netsim.forged_rejected")
	}
	return m
}

// blockPlan is the per-run sender-side state shared by every receiver:
// the authenticated wire sequence, its timing, the reliability set, and
// the cached instruments. Built once by prepareBlock for both the flat
// Run and the overlay RunOverlay entry points.
type blockPlan struct {
	pkts      []*packet.Packet
	maxIndex  uint32 // largest packet index on the wire
	reliable  []bool // by packet index: never lost on the last hop
	sendTimes []time.Time
	wires     [][]byte // encoded wire images; only for faulted runs
	metrics   *runMetrics
	// sigs is the run's signature-verdict memo, handed to every receiver's
	// verifier: all receivers are sent the same signed bytes, so each
	// distinct signature is checked once per run instead of once per
	// receiver. verifier.Env.Sigs says why receivers stay independent.
	sigs *crypto.SigCache
	// digests is the run's content-digest memo, built here and only read
	// afterwards: every receiver is handed the same genuine *packet.Packet
	// values, so each is hashed once per run instead of once per receiver
	// that has to check it. verifier.Env.Digests says why that is sound; a
	// delivery the adversary made is another pointer and is hashed for real.
	digests verifier.DigestMemo
}

// receiverScratch is what a chunk of receivers, simulated one after another,
// needs while they run and nothing of afterwards.
type receiverScratch struct {
	received []bool    // the loss pattern, by 1-based wire position
	arrivals []arrival // surviving deliveries, then sorted by arrival
	// v is the verifier, Reset with each receiver's Env (its Spans view
	// differs per receiver). No receiver's BatchQ outlives it, so no
	// verdict is ever parked at a Reset.
	v scheme.Verifier
	// timeToAuth merges the chunk's receivers' latency histograms.
	timeToAuth obs.HistogramData
}

// newDigestMemo builds a run's digest memo; a variable so a test can run
// without one and compare.
var newDigestMemo = verifier.NewDigestMemo

// exportSigMemo publishes the memo's lookup counts once the receivers are
// done: misses is the public-key operations the run paid for, and the same
// at any worker count (see crypto.SigCache on concurrent first lookups).
func (p *blockPlan) exportSigMemo(reg *obs.Registry) {
	if reg == nil {
		return
	}
	st := p.sigs.Stats()
	reg.Counter("netsim.sig_memo_hits").Add(st.Hits)
	reg.Counter("netsim.sig_memo_misses").Add(st.Misses)
}

// prepareBlock authenticates the block and derives the sender-side plan.
// adversarial forces registration of the forgery counters even without a
// wire-fault injector (the overlay's forged-repair path needs them).
func prepareBlock(s scheme.Scheme, cfg Config, blockID uint64, payloads [][]byte, adversarial bool) (*blockPlan, error) {
	if s == nil {
		return nil, fmt.Errorf("netsim: nil scheme")
	}
	pkts, err := s.Authenticate(blockID, payloads)
	if err != nil {
		return nil, fmt.Errorf("netsim: authenticate: %w", err)
	}
	maxIndex := uint32(0)
	for _, p := range pkts {
		maxIndex = max(maxIndex, p.Index)
	}
	reliable := make([]bool, maxIndex+1)
	ahead := 0 // copies sent before the block's first wire packet
	if cfg.SigRetransmits > 0 {
		pkts, ahead = withCopies(pkts, cfg.ReliableIndices, cfg.SigRetransmits)
	} else {
		for _, idx := range cfg.ReliableIndices {
			if idx <= maxIndex {
				reliable[idx] = true
			}
		}
	}
	sendTimes := make([]time.Time, len(pkts))
	for w := range pkts {
		sendTimes[w] = cfg.Start.Add(time.Duration(w-ahead) * cfg.SendInterval)
	}
	faultsOn := cfg.Faults != nil && cfg.Faults.Enabled()
	// The adversary mutates wire bytes, so faulted runs need each packet's
	// encoding; encode once here rather than per receiver.
	var wires [][]byte
	if faultsOn {
		// One backing array for all wire images: encode append-style into a
		// shared buffer and slice it per packet. The buffer is only read
		// (mutations copy) once the receiver goroutines start.
		wires = make([][]byte, len(pkts))
		size := 0
		for _, p := range pkts {
			size += p.EncodedSize()
		}
		backing := make([]byte, 0, size)
		for w, p := range pkts {
			start := len(backing)
			backing, err = p.AppendEncode(backing)
			if err != nil {
				return nil, fmt.Errorf("netsim: encode wire %d: %w", w+1, err)
			}
			wires[w] = backing[start:len(backing):len(backing)]
		}
	}

	// Only successful checks are stored and there is at most one genuine
	// signature per wire packet, so the memo never rotates.
	sigs, err := crypto.NewSigCache(len(pkts))
	if err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}

	metrics := newRunMetrics(cfg.Metrics, faultsOn || adversarial)
	if cfg.Tracer.Enabled() {
		// One run_meta record leads the trace so offline tooling (mcreport)
		// can interpret it without re-supplying the run's flags: scheme
		// name, wire count, and the signature packet's index.
		meta := obs.Span{
			Kind: obs.SpanRunMeta, Scheme: s.Name(),
			Wire: len(pkts), Block: blockID, TimeNS: obs.TimeNS(cfg.Start),
		}
		if len(cfg.ReliableIndices) > 0 {
			meta.Root = cfg.ReliableIndices[0]
		}
		cfg.Tracer.Record(meta)
		for w, p := range pkts {
			traceWire(cfg.Tracer, obs.SpanSent, w, p, sendTimes[w], "")
		}
	}
	if metrics != nil {
		metrics.sent.Add(int64(len(pkts)))
	}
	return &blockPlan{
		pkts:      pkts,
		maxIndex:  maxIndex,
		reliable:  reliable,
		sendTimes: sendTimes,
		wires:     wires,
		metrics:   metrics,
		sigs:      sigs,
		digests:   newDigestMemo(pkts),
	}, nil
}

// withCopies is the block's wire with k more copies of each signature
// packet in sig, back to back beside it, where depgraph.Root places them:
// ahead of a signature packet that is first in send order, after the block
// otherwise. It returns how many copies go ahead.
func withCopies(pkts []*packet.Packet, sig []uint32, k int) ([]*packet.Packet, int) {
	var ahead, after []*packet.Packet
	for _, idx := range sig {
		w := slices.IndexFunc(pkts, func(p *packet.Packet) bool { return p.Index == idx })
		for c := 0; w >= 0 && c < k; c++ {
			if w == 0 {
				ahead = append(ahead, pkts[0])
			} else {
				after = append(after, pkts[w])
			}
		}
	}
	return slices.Concat(ahead, pkts, after), len(ahead)
}

// traceWire records one simulator-side fact about the copy of p at 0-based
// wire position w.
func traceWire(t *obs.SpanSink, kind obs.SpanKind, w int, p *packet.Packet, at time.Time, reason string) {
	if t.Enabled() {
		t.Record(obs.Span{
			Kind: kind, Wire: w + 1, Index: p.Index, Block: p.BlockID,
			TimeNS: obs.TimeNS(at), Reason: reason,
		})
	}
}

// receiverStreams derives every receiver's RNG stream and join position
// from the run seed. All root RNG use happens here, before the receiver
// goroutines start, so the concurrent phase never touches shared RNG
// state — and results cannot depend on the worker count.
func receiverStreams(cfg Config, wireCount int) ([]stats.RNG, []int) {
	root := stats.NewRNG(cfg.Seed)
	rngs := make([]stats.RNG, cfg.Receivers)
	for r := range rngs {
		// root.Split(), copied into the one slice: NewRNG inlines, so the
		// copy allocates nothing.
		rngs[r] = *stats.NewRNG(root.Uint64())
	}
	joinAt := make([]int, cfg.Receivers)
	for r := range joinAt {
		joinAt[r] = 1
		if r >= cfg.Receivers-cfg.LateJoiners && wireCount > 1 {
			joinAt[r] = 2 + root.Intn(wireCount-1)
		}
	}
	return rngs, joinAt
}

// Run authenticates one block with the scheme and simulates its multicast
// to every receiver.
func Run(s scheme.Scheme, cfg Config, blockID uint64, payloads [][]byte) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	plan, err := prepareBlock(s, cfg, blockID, payloads, false)
	if err != nil {
		return nil, err
	}
	return runReceivers(s, cfg, plan, nil)
}

// receiverChunk is how many receivers one scratch simulates in turn. It is a
// constant, not a function of Workers, so which receivers share a scratch
// and the order the chunks' histograms merge in are the same at any worker
// count.
const receiverChunk = 128

// runReceivers simulates every receiver of the run, in chunks of
// receiverChunk on the worker pool: each chunk owns one scratch and one
// latency histogram, and the histograms merge into Result.TimeToAuth in
// chunk order. Receiver r is served by relays[r%len(relays)]; no relays is
// the flat topology.
func runReceivers(s scheme.Scheme, cfg Config, plan *blockPlan, relays []*repairPlan) (*Result, error) {
	rngs, joinAt := receiverStreams(cfg, len(plan.pkts))
	result := &Result{
		WireCount:   len(plan.pkts),
		PerReceiver: make([]ReceiverReport, cfg.Receivers),
	}
	// Both per-index outcomes of every receiver come from one array; each
	// receiver's rows are capacity-clipped, so none can grow into the next.
	slots := int(plan.maxIndex) + 1
	byIndex := make([]bool, 2*slots*cfg.Receivers)
	chunks := make([]struct{}, (cfg.Receivers+receiverChunk-1)/receiverChunk)
	tta, err := parallel.Map(cfg.Workers, chunks, func(c int, _ struct{}) (obs.HistogramData, error) {
		sc := receiverScratch{received: make([]bool, len(plan.pkts)+1)}
		for r := c * receiverChunk; r < min((c+1)*receiverChunk, cfg.Receivers); r++ {
			rows := byIndex[2*slots*r : 2*slots*(r+1) : 2*slots*(r+1)]
			report := &result.PerReceiver[r]
			report.JoinedAtWire = joinAt[r]
			report.ReceivedByIndex, report.VerifiedByIndex = rows[:slots:slots], rows[slots:]
			var rp *repairPlan
			if len(relays) > 0 {
				rp = relays[r%len(relays)]
			}
			if err := runReceiver(s, cfg, r, plan, &rngs[r], rp, &sc, report); err != nil {
				return obs.HistogramData{}, err
			}
		}
		return sc.timeToAuth, nil
	})
	if err != nil {
		return nil, err
	}
	for i := range tta {
		result.TimeToAuth.Merge(tta[i])
	}
	plan.exportSigMemo(cfg.Metrics)
	return result, nil
}

type arrival struct {
	wire int // 0-based position in pkts
	at   time.Time
	// p is the decoded packet the verifier will see: the genuine packet
	// for pass deliveries, a re-decoded mutation or forgery otherwise.
	p    *packet.Packet
	kind fault.Kind
}

// repairPlan is a receiver's view of its serving leaf relay: which wires
// the relay serves at all (mask — loss upstream of the relay is absolute,
// even under the Forced root rule), which lost wire positions a NACK signature repair can recover, how much
// upstream repair lateness each wire already carries, the last-hop repair
// round trip, and — for the adversarial forged-repair scenario — a
// poisoned twin served instead of the genuine packet. nil means no relay
// (the flat topology).
type repairPlan struct {
	mask       []bool           // 1-based wire set the relay serves; nil = everything
	available  []bool           // by 0-based wire position: repairable from the relay store; nil = relays off
	extraDelay []time.Duration  // per-wire lateness inherited from upstream repairs
	rtt        time.Duration    // one NACK round trip to the local relay
	forged     []*packet.Packet // non-nil: the relay store is poisoned; forged[w] replaces repairs of wire w
}

// runReceiver simulates receiver recv on sc into report, which arrives with
// JoinedAtWire and its zeroed per-index rows set, and merges its verifier's
// latencies into sc.timeToAuth. cfg.Loss is its last hop; rp, when non-nil,
// is its serving relay.
func runReceiver(
	s scheme.Scheme,
	cfg Config,
	recv int,
	plan *blockPlan,
	rng *stats.RNG,
	rp *repairPlan,
	sc *receiverScratch,
	report *ReceiverReport,
) error {
	pkts, wires, sendTimes := plan.pkts, plan.wires, plan.sendTimes
	reliable, metrics := plan.reliable, plan.metrics
	joinAt := report.JoinedAtWire
	tracer := cfg.Tracer.ForReceiver(recv)
	drop := func(w int, p *packet.Packet, reason string) {
		report.Lost++
		if metrics != nil {
			metrics.dropped.Inc()
		}
		traceWire(tracer, obs.SpanDropped, w, p, sendTimes[w], reason)
	}
	// noteFault tallies one adversarial delivery and traces it. Corruption
	// and truncation share SpanCorrupted with a distinguishing reason.
	noteFault := func(w int, p *packet.Packet, at time.Time, k fault.Kind) {
		var (
			typ    obs.SpanKind
			reason string
		)
		switch k {
		case fault.KindCorrupted:
			report.Corrupted++
			if metrics != nil {
				metrics.corrupted.Inc()
			}
			typ, reason = obs.SpanCorrupted, "corrupted"
		case fault.KindTruncated:
			report.Truncated++
			if metrics != nil {
				metrics.truncated.Inc()
			}
			typ, reason = obs.SpanCorrupted, "truncated"
		case fault.KindDuplicate:
			report.Duplicated++
			if metrics != nil {
				metrics.duplicated.Inc()
			}
			return
		case fault.KindForged:
			report.ForgedInjected++
			if metrics != nil {
				metrics.forgedInjected.Inc()
			}
			typ = obs.SpanForgedInjected
		default:
			return
		}
		traceWire(tracer, typ, w, p, at, reason)
	}
	forgedRejected := func(w int, p *packet.Packet, at time.Time) {
		report.ForgedRejected++
		if metrics != nil {
			metrics.forgedRejected.Inc()
		}
		traceWire(tracer, obs.SpanForgedRejected, w, p, at, "")
	}
	faultsOn := cfg.Faults != nil && cfg.Faults.Enabled()
	// The overlay's forged-repair path injects adversarial deliveries with
	// no wire-fault injector, and needs the same ingest tolerance.
	adversarial := faultsOn || (rp != nil && rp.forged != nil)
	var inj *fault.Injector
	if faultsOn {
		in, err := fault.NewInjector(*cfg.Faults, rng.Split())
		if err != nil {
			return fmt.Errorf("netsim: %w", err)
		}
		inj = in
	}
	received := sc.received
	cfg.Loss.SampleInto(rng, received)
	arrivals := sc.arrivals[:0]
	for w, p := range pkts {
		if w+1 < joinAt {
			drop(w, p, "late_join")
			continue
		}
		if rp != nil && rp.mask != nil && !rp.mask[w+1] {
			// The serving relay never had this wire: nothing arrives and
			// nothing can be repaired from its store.
			drop(w, p, "loss")
			continue
		}
		if !received[w+1] && !reliable[p.Index] {
			if rp != nil && rp.available != nil && rp.available[w] {
				// Lost on the last hop, but the local relay holds the
				// signature packet: one NACK round trip later the repair
				// arrives — or, from a poisoned store, a forged twin the
				// verifier must refuse.
				at := sendTimes[w].Add(cfg.Delay.Sample(rng)).Add(rp.extraDelay[w] + rp.rtt)
				if rp.forged != nil && rp.forged[w] != nil {
					fp := rp.forged[w]
					noteFault(w, fp, at, fault.KindForged)
					arrivals = append(arrivals, arrival{wire: w, at: at, p: fp, kind: fault.KindForged})
					continue
				}
				report.Repaired++
				arrivals = append(arrivals, arrival{wire: w, at: at, p: p})
				continue
			}
			drop(w, p, "loss")
			continue
		}
		at := sendTimes[w].Add(cfg.Delay.Sample(rng))
		if rp != nil {
			at = at.Add(rp.extraDelay[w])
		}
		if inj == nil {
			arrivals = append(arrivals, arrival{wire: w, at: at, p: p})
			continue
		}
		for _, d := range inj.Apply(wires[w], p) {
			dp := p
			if d.Kind != fault.KindPass {
				decoded, derr := packet.Decode(d.Wire)
				if decoded != nil {
					dp = decoded
				}
				noteFault(w, dp, at, d.Kind)
				if derr != nil {
					// The mutation destroyed the framing; the datagram
					// dies at the parser — equivalent to a channel drop.
					traceWire(tracer, obs.SpanDropped, w, p, at, d.Kind.String())
					continue
				}
			}
			arrivals = append(arrivals, arrival{wire: w, at: at.Add(d.Delay), p: dp, kind: d.Kind})
		}
	}
	// Deliver in arrival order: jitter reorders packets naturally.
	slices.SortFunc(arrivals, func(a, b arrival) int { return a.at.Compare(b.at) })
	sc.arrivals = arrivals

	env := verifier.Env{
		MaxBuffered: cfg.MaxBuffered, Sigs: plan.sigs, Digests: plan.digests,
		Spans: tracer, Metrics: cfg.Metrics,
	}
	var err error
	if sc.v == nil {
		sc.v, err = s.NewVerifier(env)
	} else {
		err = sc.v.Reset(env)
	}
	if err != nil {
		return fmt.Errorf("netsim: new verifier: %w", err)
	}
	v := sc.v
	maxWireSeen := -1
	for _, a := range arrivals {
		p := a.p
		report.Delivered++
		genuine := a.kind == fault.KindPass || a.kind == fault.KindDuplicate
		if genuine && int(p.Index) < len(report.ReceivedByIndex) {
			report.ReceivedByIndex[p.Index] = true
		}
		outOfOrder := a.wire < maxWireSeen
		if a.wire > maxWireSeen {
			maxWireSeen = a.wire
		}
		if metrics != nil {
			metrics.delivered.Inc()
			if outOfOrder {
				metrics.outOfOrder.Inc()
			}
		}
		if tracer.Enabled() {
			// Non-genuine deliveries (mutated or forged datagrams) carry
			// their fault kind, so a trace reader can recover which indices
			// genuinely arrived — the receive pattern the diagnosis join
			// feeds into the dependence graph.
			var reason string
			if !genuine {
				reason = a.kind.String()
			}
			tracer.Record(obs.Span{
				Kind: obs.SpanDelivered, Wire: a.wire + 1, Index: p.Index,
				Block: p.BlockID, TimeNS: obs.TimeNS(a.at), OutOfOrder: outOfOrder,
				Reason: reason,
			})
		}
		rejectedBefore := 0
		if a.kind == fault.KindForged {
			rejectedBefore = v.Stats().Rejected
		}
		events, err := v.Ingest(p, a.at)
		if err != nil {
			if !adversarial {
				return fmt.Errorf("netsim: ingest wire %d: %w", a.wire+1, err)
			}
			// Under an adversarial channel a refused delivery (index out
			// of range after a bit flip, block mismatch, ...) is expected
			// input, not a programming error: count it and keep going.
			report.InvalidDeliveries++
			if a.kind == fault.KindForged {
				forgedRejected(a.wire, p, a.at)
			}
			continue
		}
		if a.kind == fault.KindForged && v.Stats().Rejected > rejectedBefore {
			forgedRejected(a.wire, p, a.at)
		}
		for _, e := range events {
			if adversarial && fault.IsForgedPayload(e.Payload) {
				// Security invariant violation: a fabricated packet made it
				// through verification. Surfaced in the report (and asserted
				// zero by the chaos soak), never silently counted as a win.
				report.ForgedAuthenticated++
				continue
			}
			if int(e.Index) < len(report.VerifiedByIndex) {
				report.VerifiedByIndex[e.Index] = true
			}
		}
	}
	st := v.Stats()
	report.Stats = st.Counts
	sc.timeToAuth.Merge(st.TimeToAuth)
	return nil
}

// AuthRatioByIndex aggregates, across receivers, the fraction of receivers
// that verified each wire index among those that received it — the
// empirical q_i of the paper's definition.
func (r *Result) AuthRatioByIndex() map[uint32]float64 {
	receivedCount := make([]int, r.maxIndex()+1)
	verifiedCount := make([]int, r.maxIndex()+1)
	for i := range r.PerReceiver {
		rep := &r.PerReceiver[i]
		for idx := 1; idx < len(rep.ReceivedByIndex); idx++ {
			if !rep.ReceivedByIndex[idx] {
				continue
			}
			receivedCount[idx]++
			if rep.Verified(uint32(idx)) {
				verifiedCount[idx]++
			}
		}
	}
	out := make(map[uint32]float64)
	for idx, rc := range receivedCount {
		if rc > 0 {
			out[uint32(idx)] = float64(verifiedCount[idx]) / float64(rc)
		}
	}
	return out
}

func (r *Result) maxIndex() int {
	max := 0
	for i := range r.PerReceiver {
		if n := len(r.PerReceiver[i].ReceivedByIndex) - 1; n > max {
			max = n
		}
	}
	return max
}

// Counts returns total received and verified tallies for a wire index
// across receivers, for confidence-interval computation.
func (r *Result) Counts(index uint32) (received, verified int) {
	for i := range r.PerReceiver {
		rep := &r.PerReceiver[i]
		if rep.Received(index) {
			received++
			if rep.Verified(index) {
				verified++
			}
		}
	}
	return received, verified
}

// MinAuthRatio returns the minimum empirical q_i over the given wire
// indices (use the data-packet indices of the scheme).
func (r *Result) MinAuthRatio(indices []uint32) float64 {
	ratios := r.AuthRatioByIndex()
	minRatio := 1.0
	for _, idx := range indices {
		ratio, ok := ratios[idx]
		if !ok {
			// Never received across all receivers: treat as 0.
			return 0
		}
		if ratio < minRatio {
			minRatio = ratio
		}
	}
	return minRatio
}

// TotalAuthenticated sums verifier-authenticated packets across receivers.
func (r *Result) TotalAuthenticated() int {
	total := 0
	for _, rep := range r.PerReceiver {
		total += rep.Stats.Authenticated
	}
	return total
}

// TotalRepaired sums the relay-served last-hop signature repairs across
// receivers; always zero for flat runs.
func (r *Result) TotalRepaired() int {
	total := 0
	for i := range r.PerReceiver {
		total += r.PerReceiver[i].Repaired
	}
	return total
}

// FaultTotals aggregates the adversarial-channel tallies across receivers.
type FaultTotals struct {
	Corrupted           int
	Truncated           int
	Duplicated          int
	ForgedInjected      int
	ForgedRejected      int
	ForgedAuthenticated int
	InvalidDeliveries   int
}

// FaultTotals sums each receiver's adversarial-channel counters; all zero
// for fault-free runs.
func (r *Result) FaultTotals() FaultTotals {
	var t FaultTotals
	for i := range r.PerReceiver {
		rep := &r.PerReceiver[i]
		t.Corrupted += rep.Corrupted
		t.Truncated += rep.Truncated
		t.Duplicated += rep.Duplicated
		t.ForgedInjected += rep.ForgedInjected
		t.ForgedRejected += rep.ForgedRejected
		t.ForgedAuthenticated += rep.ForgedAuthenticated
		t.InvalidDeliveries += rep.InvalidDeliveries
	}
	return t
}

// MaxBufferHighWater returns the largest pending message-buffer high-water
// mark any receiver's verifier reached — the quantity Config.MaxBuffered
// bounds.
func (r *Result) MaxBufferHighWater() int {
	max := 0
	for i := range r.PerReceiver {
		if hw := r.PerReceiver[i].Stats.MsgBufferHighWater; hw > max {
			max = hw
		}
	}
	return max
}
