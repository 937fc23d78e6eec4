package serve

import (
	"errors"
	"sync"
	"time"

	"mcauth/internal/obs"
	"mcauth/internal/packet"
	"mcauth/internal/server"
	"mcauth/internal/transport"
)

// The relay daemon's relay.* metric names. relay.forwarded is also what
// the simulated relay tree (netsim.RunOverlay) counts, so dashboards read
// one name for both.
const (
	MetricRelayForwarded     = "relay.forwarded"
	MetricRelayCatchupServed = "relay.catchup_served"
	MetricRelayReconnects    = "relay.reconnects"
	MetricRelayDrops         = "relay.drops"
	metricRelayShedData      = "relay.shed_data"
	metricRelayShedSig       = "relay.shed_sig"
)

// relayQueueDepth bounds each downstream subscriber's delivery queue; a
// subscriber that cannot drain it loses packets (counted, data before
// signatures), never the relay's upstream read loop.
const relayQueueDepth = 1 << 12

// Relay is a mid-tree fan-out node: a sink that retains every upstream
// packet in bounded per-stream repair stores and fans it out, and a feed
// that re-serves live traffic and resume catch-up from that retention —
// so a reconnecting subscriber catches up one hop from the edge instead
// of at the signer. It never needs the signing key:
// packets are opaque, and a relay that tampers with them only produces
// material the receivers' verifiers reject.
type Relay struct {
	// Fanout is the downstream subscriber set (Subscribe / Unsubscribe),
	// with the server's queue policy.
	*server.Fanout

	streams, repairBlocks int
	spans                 *obs.SpanSink
	forwarded, catchup    *obs.Counter // relay.forwarded, relay.catchup_served
	// mutate, when set (tests only), replaces every packet at ingest — the
	// poisoned-relay adversary: its store and its live forwarding both
	// serve the mutated packet.
	mutate func(streamID uint64, p *packet.Packet) *packet.Packet

	mu      sync.Mutex
	stores  map[uint64]*transport.RepairStore
	maxSeen map[uint64]uint64
}

// NewRelay creates a relay for stream IDs 1..streams retaining
// repairBlocks blocks of each; reg receives the relay.* counters and spans
// a relay_ingest span per packet (nil disables either).
func NewRelay(streams, repairBlocks int, reg *obs.Registry, spans *obs.SpanSink) (*Relay, error) {
	if repairBlocks < 1 {
		return nil, errors.New("relay needs -repair > 0 (it exists to serve catch-up from retention)")
	}
	return &Relay{
		Fanout: server.NewFanout(relayQueueDepth, server.FanoutMetrics{
			Dropped:  reg.Counter(MetricRelayDrops),
			ShedData: reg.Counter(metricRelayShedData),
			ShedSig:  reg.Counter(metricRelayShedSig),
		}),
		streams:      streams,
		repairBlocks: repairBlocks,
		spans:        spans,
		forwarded:    reg.Counter(MetricRelayForwarded),
		catchup:      reg.Counter(MetricRelayCatchupServed),
		stores:       make(map[uint64]*transport.RepairStore),
		maxSeen:      make(map[uint64]uint64),
	}, nil
}

// Cursors asks every stream from one past its high-water block — From 0
// on a cold store, so a freshly restarted relay refills its retention from
// upstream's.
func (r *Relay) Cursors() []transport.ResumePoint {
	points := make([]transport.ResumePoint, 0, r.streams)
	r.mu.Lock()
	defer r.mu.Unlock()
	for id := uint64(1); id <= uint64(r.streams); id++ {
		var from uint64
		if seen, ok := r.maxSeen[id]; ok {
			from = seen + 1
		}
		points = append(points, transport.ResumePoint{StreamID: id, From: from})
	}
	return points
}

// Packet stores one upstream packet in its stream's retention and fans it
// out downstream. Duplicates across a resume seam are detected by (block,
// index) and kept out of the store but still forwarded — downstream
// receivers discard them, and a restarted downstream may need exactly
// those.
func (r *Relay) Packet(streamID uint64, p *packet.Packet) error {
	if r.mutate != nil {
		p = r.mutate(streamID, p)
	}
	r.mu.Lock()
	st := r.stores[streamID]
	if st == nil {
		st, _ = transport.NewRepairStore(r.repairBlocks) // size checked by NewRelay
		r.stores[streamID] = st
	}
	if seen, ok := r.maxSeen[streamID]; !ok || p.BlockID > seen {
		r.maxSeen[streamID] = p.BlockID
	}
	r.mu.Unlock()
	if !st.Has(p.BlockID, p.Index) {
		st.Add(p.BlockID, []*packet.Packet{p})
	}
	if r.spans.Enabled() {
		r.spans.Record(obs.Span{
			Kind:   obs.SpanRelayIngest,
			Stream: streamID,
			Block:  p.BlockID,
			Index:  p.Index,
			TimeNS: time.Now().UnixNano(),
		})
	}
	r.forwarded.Inc()
	r.Deliver(streamID, p)
	return nil
}

// EndSession has nothing to settle: a relay holds no pending verdicts.
func (r *Relay) EndSession() error { return nil }

func (r *Relay) store(streamID uint64) *transport.RepairStore {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stores[streamID]
}

// ResumeFrom replays the stream's retained packets from block from on,
// counted in relay.catchup_served.
func (r *Relay) ResumeFrom(streamID, from uint64) []*packet.Packet {
	st := r.store(streamID)
	if st == nil {
		return nil
	}
	pkts := st.Since(from)
	r.catchup.Add(int64(len(pkts)))
	return pkts
}
