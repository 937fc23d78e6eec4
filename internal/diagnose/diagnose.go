// Package diagnose joins a run's packet-lifecycle trace (internal/obs
// trace records) with the scheme's dependence graph to answer, for every
// packet that failed to authenticate at a receiver, *why* — attributing
// each failure to exactly one root cause from a closed taxonomy, and, for
// hash-path cuts, to the minimal set of lost predecessor packets whose
// re-delivery would restore the authentication path (the frontier cut of
// internal/depgraph).
//
// The join is deliberately order-independent: netsim's receivers run in
// parallel, so the event order of two identical-seed traces differs, but
// the per-(receiver, index) flag sets and additive histogram counts built
// here do not. Two traces of the same run therefore diagnose to the same
// result, byte for byte — which is what makes report diffing meaningful.
package diagnose

import (
	"fmt"
	"sort"

	"mcauth/internal/depgraph"
	"mcauth/internal/obs"
)

// Cause is a root-cause class for one unauthenticated packet. Every
// unauthenticated (receiver, index) pair is assigned exactly one Cause.
type Cause string

const (
	// causePacketLost: the packet never genuinely arrived — channel loss,
	// late join, or a fault mutation that destroyed the datagram framing.
	causePacketLost Cause = "packet-lost"
	// causeSignatureLost: the packet arrived, but the block's signature
	// packet never authenticated at this receiver, so no trust could flow
	// to anything.
	causeSignatureLost Cause = "signature-lost"
	// causeHashPathCut: the packet and the signature both arrived, but
	// every root-to-packet path in the dependence graph runs through a
	// lost packet. The diagnosis carries the frontier-cut culprit set.
	causeHashPathCut Cause = "hash-path-cut"
	// causeBufferDrop: the verifier's bounded message buffer was full when
	// the packet arrived and it was discarded (the DoS guard).
	causeBufferDrop Cause = "dropped-by-bounded-buffer"
	// causeRejected: the verifier refused the packet — bad signature,
	// digest mismatch, bad MAC — i.e. corruption or forgery.
	causeRejected Cause = "rejected-corrupt/forged"
	// causeDeadline: TESLA only — the packet arrived after its key's
	// disclosure deadline and was dropped by the safety condition.
	causeDeadline Cause = "deadline-exceeded"
)

// causeOrder fixes the rendering order of causes in reports.
var causeOrder = []Cause{
	causePacketLost,
	causeRejected,
	causeDeadline,
	causeBufferDrop,
	causeSignatureLost,
	causeHashPathCut,
}

// Options configures the trace→graph join.
type Options struct {
	// Graph is the scheme's dependence graph; nil disables culprit
	// attribution (hash-path-cut diagnoses then carry no culprit set).
	Graph *depgraph.Graph
	// VertexOf maps a wire authentication index onto a graph vertex
	// (scheme.VertexMapper.VertexOf). Required alongside Graph; schemes
	// without a sound mapping (TESLA's split encoding) leave both nil.
	VertexOf func(index uint32) (int, bool)
	// RootIndex is the wire index of the signature/bootstrap packet. 0
	// means "take it from the trace's run_meta record"; if neither is set,
	// the signature-lost cause is never assigned.
	RootIndex uint32
	// DataIndices restricts diagnosis to these wire indices (e.g. to
	// exclude TESLA's trailing key-only packets, which never authenticate
	// by design). nil diagnoses every index seen on the wire.
	DataIndices []uint32
}

// packetDiagnosis is the verdict for one unauthenticated packet at one
// receiver.
type packetDiagnosis struct {
	Receiver int    `json:"receiver"`
	Index    uint32 `json:"index"`
	Cause    Cause  `json:"cause"`
	// Reason carries the trace-level detail behind the cause: "loss" or
	// "late_join" for packet-lost, "digest_mismatch"/"bad_mac"/... for
	// rejections, "deadline" for unsafe drops.
	Reason string `json:"reason,omitempty"`
	// Culprits lists, for hash-path-cut, the wire indices of the lost
	// packets on the verified frontier whose re-delivery would advance
	// this packet's authentication (ascending).
	Culprits []uint32 `json:"culprits,omitempty"`
}

// pktState folds every record about one (receiver, index) pair into
// order-independent flags: each field is a monotone "has this ever
// happened" bit (or a first-writer-wins reason string), so the fold result
// does not depend on event order within the pair, and pairs are
// independent of each other.
type pktState struct {
	deliveredGenuine bool
	// deliveredFaulty marks a delivery of a mutated or forged copy of
	// this index (the delivered record carried a fault kind).
	deliveredFaulty bool
	faultyReason    string
	dropReason      string
	authenticated   bool
	rejected        bool
	rejectReason    string
	unsafe          bool
	unsafeReason    string
	overflow        bool
}

// runState is everything the classifier and the report builder need,
// extracted from the raw record stream in one pass.
type runState struct {
	scheme    string
	wireCount int
	rootIndex uint32
	records   int // trace records folded, of any kind

	indices   []uint32 // indices seen in sent records, ascending unique
	receivers []int    // receiver IDs seen, ascending

	// pkts[r][index] is the folded per-packet state.
	pkts map[int]map[uint32]*pktState

	// Aggregates (all additive, so order-independent).
	sent           int
	timeToAuth     obs.HistogramData
	bufferDepth    obs.HistogramData
	corrupted      int
	truncated      int
	forgedInjected int
	forgedRejected int
	overflowDrops  int
}

func (rs *runState) pkt(recv int, index uint32) *pktState {
	m := rs.pkts[recv]
	if m == nil {
		m = make(map[uint32]*pktState)
		rs.pkts[recv] = m
	}
	st := m[index]
	if st == nil {
		st = &pktState{}
		m[index] = st
	}
	return st
}

// collect folds the trace into runState. run_meta and sent are the source's
// records; the receiver-side lifecycle kinds belong to the receiver stamped
// on them; the serving tier's hops (push ... decode, deferred_park,
// sig_resolve) say nothing this join reads.
func collect(spans []obs.Span) *runState {
	rs := &runState{pkts: make(map[int]map[uint32]*pktState), records: len(spans)}
	indexSet := make(map[uint32]bool)
	recvSet := make(map[int]bool)
	for i := range spans {
		e := &spans[i]
		switch e.Kind {
		case obs.SpanRunMeta:
			rs.scheme = e.Scheme
			rs.wireCount = e.Wire
			rs.rootIndex = e.Root
			continue
		case obs.SpanSent:
			rs.sent++
			if e.Index > 0 {
				indexSet[e.Index] = true
			}
			continue
		case obs.SpanDelivered, obs.SpanDropped, obs.SpanAuthenticate, obs.SpanReject,
			obs.SpanUnsafe, obs.SpanOverflowDropped, obs.SpanMsgBuffered, obs.SpanHashBuffered,
			obs.SpanCorrupted, obs.SpanForgedInjected, obs.SpanForgedRejected:
			recvSet[e.Receiver] = true
		default:
			continue
		}
		if e.Index == 0 {
			// Receiver-side bookkeeping without an index (e.g. TESLA
			// key-chain rejections) cannot be attributed to a packet.
			continue
		}
		st := rs.pkt(e.Receiver, e.Index)
		switch e.Kind {
		case obs.SpanDelivered:
			if e.Reason == "" { // non-genuine arrivals carry their fault kind
				st.deliveredGenuine = true
			} else {
				st.deliveredFaulty = true
				if st.faultyReason == "" {
					st.faultyReason = e.Reason
				}
			}
		case obs.SpanDropped:
			if st.dropReason == "" || e.Reason == "loss" {
				// Prefer the channel-loss reason when several wire copies
				// of the index died different deaths.
				st.dropReason = e.Reason
			}
		case obs.SpanAuthenticate:
			st.authenticated = true
			rs.timeToAuth.Observe(e.DurNS)
		case obs.SpanReject:
			st.rejected = true
			if st.rejectReason == "" {
				st.rejectReason = e.Reason
			}
		case obs.SpanUnsafe:
			st.unsafe = true
			if st.unsafeReason == "" {
				st.unsafeReason = e.Reason
			}
		case obs.SpanOverflowDropped:
			st.overflow = true
			rs.overflowDrops++
		case obs.SpanMsgBuffered:
			rs.bufferDepth.Observe(int64(e.Depth))
		case obs.SpanCorrupted:
			if e.Reason == "truncated" {
				rs.truncated++
			} else {
				rs.corrupted++
			}
		case obs.SpanForgedInjected:
			rs.forgedInjected++
		case obs.SpanForgedRejected:
			rs.forgedRejected++
		}
	}
	for idx := range indexSet {
		rs.indices = append(rs.indices, idx)
	}
	sort.Slice(rs.indices, func(i, j int) bool { return rs.indices[i] < rs.indices[j] })
	for r := range recvSet {
		rs.receivers = append(rs.receivers, r)
	}
	sort.Ints(rs.receivers)
	if rs.wireCount == 0 {
		rs.wireCount = rs.sent
	}
	return rs
}

// scope returns the indices to diagnose: the caller's DataIndices when
// set, otherwise every index seen on the wire.
func (o Options) scope(rs *runState) []uint32 {
	if o.DataIndices == nil {
		return rs.indices
	}
	out := append([]uint32(nil), o.DataIndices...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// diagnoseSpans classifies every unauthenticated packet of the traced run into
// exactly one root cause, sorted by (receiver, index). Classification is
// first-match-wins down the failure chain a packet traverses: it must
// arrive, be accepted, beat its deadline, fit the buffer, and then have an
// intact authentication path — the first stage that failed is the cause.
func diagnoseSpans(spans []obs.Span, opts Options) ([]packetDiagnosis, error) {
	rs := collect(spans)
	return diagnose(rs, opts)
}

func diagnose(rs *runState, opts Options) ([]packetDiagnosis, error) {
	if (opts.Graph == nil) != (opts.VertexOf == nil) {
		return nil, fmt.Errorf("diagnose: Graph and VertexOf must be set together")
	}
	if rs.sent == 0 {
		// Without the source's wire sequence nothing is in scope, and an
		// empty diagnosis would read as "every packet authenticated".
		return nil, fmt.Errorf("diagnose: no sent records among %d trace records: not a simulated run's lifecycle trace (a daemon's flight dump renders with mcreport -flight)", rs.records)
	}
	rootIndex := opts.RootIndex
	if rootIndex == 0 {
		rootIndex = rs.rootIndex
	}
	indices := opts.scope(rs)

	// Invert the wire→vertex mapping once, to name culprit vertices by
	// their wire index in the output.
	var indexOfVertex map[int]uint32
	if opts.Graph != nil {
		indexOfVertex = make(map[int]uint32, len(rs.indices))
		for _, idx := range rs.indices {
			if v, ok := opts.VertexOf(idx); ok {
				if prev, dup := indexOfVertex[v]; !dup || idx < prev {
					indexOfVertex[v] = idx
				}
			}
		}
	}

	var out []packetDiagnosis
	for _, recv := range rs.receivers {
		states := rs.pkts[recv]
		var finder *depgraph.CulpritFinder // built lazily: only cut diagnoses pay for it
		for _, idx := range indices {
			st := states[idx]
			if st == nil {
				st = &pktState{}
			}
			if st.authenticated {
				continue
			}
			d := packetDiagnosis{Receiver: recv, Index: idx}
			switch {
			case !st.deliveredGenuine && st.deliveredFaulty && st.rejected:
				// The only copy that arrived was mutated or forged and the
				// verifier refused it — corruption, not channel loss.
				d.Cause, d.Reason = causeRejected, firstNonEmpty(st.rejectReason, st.faultyReason)
			case !st.deliveredGenuine:
				d.Cause, d.Reason = causePacketLost, firstNonEmpty(st.dropReason, st.faultyReason)
			case st.rejected:
				d.Cause, d.Reason = causeRejected, st.rejectReason
			case st.unsafe:
				d.Cause, d.Reason = causeDeadline, st.unsafeReason
			case st.overflow:
				d.Cause = causeBufferDrop
			case rootIndex != 0 && !stateAuthenticated(states, rootIndex):
				d.Cause = causeSignatureLost
			default:
				d.Cause = causeHashPathCut
				if opts.Graph != nil {
					if finder == nil {
						var err error
						finder, err = newFinder(opts, rs, states)
						if err != nil {
							return nil, err
						}
					}
					culprits, err := cutCulprits(opts, finder, indexOfVertex, idx)
					if err != nil {
						return nil, err
					}
					d.Culprits = culprits
				}
			}
			out = append(out, d)
		}
	}
	return out, nil
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

func stateAuthenticated(states map[uint32]*pktState, index uint32) bool {
	st := states[index]
	return st != nil && st.authenticated
}

// newFinder builds the receiver's graph-side receive pattern — vertex v was
// received iff some wire index mapping to v genuinely arrived — and the
// culprit finder over it.
func newFinder(opts Options, rs *runState, states map[uint32]*pktState) (*depgraph.CulpritFinder, error) {
	received := make([]bool, opts.Graph.N()+1)
	for _, idx := range rs.indices {
		st := states[idx]
		if st == nil || !st.deliveredGenuine {
			continue
		}
		if v, ok := opts.VertexOf(idx); ok && v >= 1 && v <= opts.Graph.N() {
			received[v] = true
		}
	}
	return opts.Graph.NewCulpritFinder(received)
}

func cutCulprits(opts Options, finder *depgraph.CulpritFinder, indexOfVertex map[int]uint32, idx uint32) ([]uint32, error) {
	target, ok := opts.VertexOf(idx)
	if !ok {
		return nil, nil
	}
	vs, err := finder.Culprits(target)
	if err != nil {
		return nil, err
	}
	culprits := make([]uint32, 0, len(vs))
	for _, v := range vs {
		if wi, ok := indexOfVertex[v]; ok {
			culprits = append(culprits, wi)
		} else {
			// Vertex never appeared on the wire under any seen index;
			// fall back to the vertex number (identity-mapped schemes).
			culprits = append(culprits, uint32(v))
		}
	}
	sort.Slice(culprits, func(i, j int) bool { return culprits[i] < culprits[j] })
	return culprits, nil
}
