package serve

import (
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/obs"
	"mcauth/internal/packet"
	"mcauth/internal/server"
	"mcauth/internal/stream"
	"mcauth/internal/transport"
	"mcauth/internal/verifier"
)

// verifyConfig parameterizes a VerifySink.
type verifyConfig struct {
	// NewReceiver builds a stream's verifier stack on first contact and
	// MaxStreams bounds the live streams (see stream.NewDemux).
	NewReceiver func(streamID uint64) (*stream.Receiver, error)
	MaxStreams  int
	// VerifyCache > 0 shares that many proven-authentic packet digests
	// across the streams; VerifyBatch > 0 defers signature checks to a
	// batch-verify queue of that many pending packets.
	VerifyCache, VerifyBatch int
	// Metrics receives the fast path's instruments and Tel the spans and
	// SLO samples (nil disables either).
	Metrics *obs.Registry
	Tel     *Telemetry
}

// VerifySink is the verifying subscriber: one stream.Demux whose
// verification state survives reconnects, fed a packet at a time from a
// Session, a subscriber channel, or a replay. Single-goroutine: whoever
// feeds it owns it, and reads the tallies once feeding has stopped.
type VerifySink struct {
	// OnAuth, when set, vets every authenticated message; an error aborts
	// the feed (a forged authentication made it through — fatal).
	OnAuth func(streamID uint64, a stream.Authenticated) error
	// Packets counts everything fed in; Authed and Padding what
	// authenticated, split into real messages and the empty payloads
	// deadline flushes pad partial blocks with.
	Packets, Authed, Padding int64

	dmx *stream.Demux
	// q is the deferred batch-verify queue shared by all stream receivers
	// (nil when batching is off). Its verdict callbacks mutate verifier
	// state, so it is resolved here, on the feeding goroutine.
	q           *crypto.BatchVerifyQueue
	verifyBatch int64
	tel         *Telemetry
}

// newVerifySink builds the demux and the receiver fast path c asks for.
func newVerifySink(c verifyConfig) (*VerifySink, error) {
	dmx, err := stream.NewDemux(c.NewReceiver, c.MaxStreams)
	if err != nil {
		return nil, err
	}
	dmx.SetSpans(c.Tel.Spans())
	v := &VerifySink{dmx: dmx, verifyBatch: int64(c.VerifyBatch), tel: c.Tel}
	var cache *verifier.SharedCache
	if c.VerifyCache > 0 {
		if cache, err = verifier.NewSharedCache(c.VerifyCache); err != nil {
			return nil, err
		}
		cache.SetMetrics(c.Metrics)
	}
	if c.VerifyBatch > 0 {
		sigEntries := c.VerifyCache
		if sigEntries <= 0 {
			sigEntries = 1024
		}
		sig, err := crypto.NewSigCache(sigEntries)
		if err != nil {
			return nil, err
		}
		if v.q, err = crypto.NewBatchVerifyQueue(c.VerifyBatch, sig); err != nil {
			return nil, err
		}
		v.q.SetMetrics(c.Metrics)
	}
	dmx.SetVerifyFastPath(cache, v.q)
	return v, nil
}

// Streams returns how many streams are live in the demux.
func (v *VerifySink) Streams() int { return len(v.dmx.StreamIDs()) }

// Cursors reports, per live stream, the block replay should resume from.
func (v *VerifySink) Cursors() []transport.ResumePoint {
	points := make([]transport.ResumePoint, 0)
	for id, from := range v.dmx.ResumePoints() {
		points = append(points, transport.ResumePoint{StreamID: id, From: from})
	}
	return points
}

// Packet is the verifying ingest step: route the packet to its stream's
// verifier, resolve the batch-verify queue at least once per queue-full of
// packets (bounding verdict latency when enqueues trickle in below the
// auto-resolve threshold), collect deferred verdicts, vet and count.
func (v *VerifySink) Packet(streamID uint64, p *packet.Packet) error {
	v.Packets++
	auths, err := v.dmx.Ingest(streamID, p, time.Now())
	if err != nil {
		return err
	}
	if v.q != nil {
		if v.Packets%v.verifyBatch == 0 && v.q.Pending() > 0 {
			v.q.Resolve()
		}
		auths = append(auths, v.dmx.DrainDeferred()...)
	}
	if v.Packets%sloFeedEvery == 0 {
		v.tel.feedSLO(v.dmx)
	}
	return v.count(auths)
}

// EndSession settles the verdicts still pending when a feed goes quiet
// (nothing else will trigger a resolve), and samples the SLO so the tail
// of a dying connection — packets that will now never authenticate — burns
// budget promptly.
func (v *VerifySink) EndSession() error {
	defer v.tel.feedSLO(v.dmx)
	if v.q == nil {
		return nil
	}
	if v.q.Pending() > 0 {
		v.q.Resolve()
	}
	return v.count(v.dmx.DrainDeferred())
}

// drain feeds the sink from a subscriber channel until it closes, then
// settles.
func (v *VerifySink) drain(ch <-chan server.Delivery) error {
	for d := range ch {
		if err := v.Packet(d.StreamID, d.Packet); err != nil {
			return err
		}
	}
	return v.EndSession()
}

// count vets and tallies a batch of authenticated messages.
func (v *VerifySink) count(auths []stream.StreamAuthenticated) error {
	for _, a := range auths {
		if v.OnAuth != nil {
			if err := v.OnAuth(a.StreamID, a.Authenticated); err != nil {
				return err
			}
		}
		if len(a.Payload) > 0 {
			v.Authed++
		} else {
			v.Padding++
		}
	}
	return nil
}
