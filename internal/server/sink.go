package server

import (
	"sync"
	"sync/atomic"

	"mcauth/internal/obs"
	"mcauth/internal/packet"
)

// Delivery is one wire packet handed to a subscriber, tagged with its
// stream (matching the transport mux framing).
type Delivery struct {
	StreamID uint64
	Packet   *packet.Packet
}

// Subscriber is one receiver-facing feed: a bounded queue of deliveries.
// A subscriber that falls a full queue behind loses the overflow (counted
// in Drops) — exactly the best-effort loss the schemes are built to
// tolerate, and the property that makes slow consumers unable to stall
// the serving path.
type Subscriber struct {
	ch    chan Delivery
	drops atomic.Int64
	// filter restricts the feed to these stream IDs; nil means all.
	filter map[uint64]bool
}

// C is the delivery channel; it closes when the fan-out shuts down or the
// subscriber is unsubscribed.
func (sub *Subscriber) C() <-chan Delivery { return sub.ch }

// Drops returns how many packets the subscriber has lost to backpressure.
func (sub *Subscriber) Drops() int64 { return sub.drops.Load() }

// FanoutMetrics are the counters a Fanout bumps (nil ones are skipped).
// ShedData / ShedSig split Dropped by packet class; a healthy shedding
// policy keeps ShedSig near zero while ShedData grows.
type FanoutMetrics struct {
	Delivered, Dropped, ShedData, ShedSig *obs.Counter
}

// Fanout is a set of bounded subscriber queues with priority-aware
// shedding: the one delivery policy of the serving tier, shared by the
// signing server and the keyless relay.
type Fanout struct {
	queue, sigReserve int
	m                 FanoutMetrics

	mu   sync.RWMutex
	subs map[*Subscriber]struct{} // nil once closed
}

// NewFanout creates a fan-out whose subscriber queues hold queue packets,
// the last max(1, queue/8) of them reserved for signature-class packets
// (signature or key disclosure present). Under backpressure data packets
// shed first: one lost data packet loses one message, one lost root packet
// can collapse the whole block's authentication. The reserve is a tail of
// the queue, so it always leaves at least one data slot; a one-slot queue
// degenerates to no reservation.
func NewFanout(queue int, m FanoutMetrics) *Fanout {
	return &Fanout{
		queue:      queue,
		sigReserve: min(max(1, queue/8), queue-1),
		m:          m,
		subs:       make(map[*Subscriber]struct{}),
	}
}

// Subscribe registers a feed of every packet delivered from now on;
// passing stream IDs restricts it to those streams. Subscribers added
// mid-stream see packets from the next block boundary on — the late-join
// story the block structure exists for.
func (f *Fanout) Subscribe(streamIDs ...uint64) (*Subscriber, error) {
	sub := &Subscriber{ch: make(chan Delivery, f.queue)}
	if len(streamIDs) > 0 {
		sub.filter = make(map[uint64]bool, len(streamIDs))
		for _, id := range streamIDs {
			sub.filter[id] = true
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.subs == nil {
		return nil, ErrClosed
	}
	f.subs[sub] = struct{}{}
	return sub, nil
}

// Unsubscribe removes the feed and closes its channel; a no-op for
// already-removed subscribers.
func (f *Fanout) Unsubscribe(sub *Subscriber) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.subs[sub]; ok {
		delete(f.subs, sub)
		close(sub.ch)
	}
}

// Close ends every feed; consumers see their channels close.
func (f *Fanout) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for sub := range f.subs {
		close(sub.ch)
	}
	f.subs = nil
}

// sigClass reports whether a packet carries authentication material whose
// loss can cost a whole block (a signature or a TESLA key disclosure), as
// opposed to one message. Shedding policy keys off this split.
func sigClass(p *packet.Packet) bool {
	return len(p.Signature) > 0 || len(p.DisclosedKey) > 0
}

// Deliver fans one packet out to every interested subscriber without ever
// blocking: full queues drop and count. Shedding is priority-aware — the
// reserved tail of each queue admits only signature-class packets,
// because one lost data packet loses one message while one lost root
// packet collapses the block's q_min (the loss-amortization argument
// batch signing rests on).
func (f *Fanout) Deliver(streamID uint64, p *packet.Packet) {
	sig := sigClass(p)
	f.mu.RLock()
	defer f.mu.RUnlock()
	for sub := range f.subs {
		if sub.filter != nil && !sub.filter[streamID] {
			continue
		}
		if !sig && len(sub.ch) >= cap(sub.ch)-f.sigReserve {
			// Queue has backed up into the reserved tail: shed data now so
			// the signature packets behind it still fit.
			sub.drops.Add(1)
			f.m.Dropped.Inc()
			f.m.ShedData.Inc()
			continue
		}
		select {
		case sub.ch <- Delivery{StreamID: streamID, Packet: p}:
			f.m.Delivered.Inc()
		default:
			sub.drops.Add(1)
			f.m.Dropped.Inc()
			if sig {
				f.m.ShedSig.Inc()
			} else {
				f.m.ShedData.Inc()
			}
		}
	}
}

// Subscribe registers a feed on the server's fan-out (see
// Fanout.Subscribe); ErrClosed once Close has begun.
func (s *Server) Subscribe(streamIDs ...uint64) (*Subscriber, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	return s.fan.Subscribe(streamIDs...)
}

// Unsubscribe removes the feed and closes its channel.
func (s *Server) Unsubscribe(sub *Subscriber) { s.fan.Unsubscribe(sub) }
