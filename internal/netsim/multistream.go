package netsim

import (
	"errors"
	"fmt"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/loss"
	"mcauth/internal/obs"
	"mcauth/internal/scheme"
	"mcauth/internal/serve"
	"mcauth/internal/server"
	"mcauth/internal/stats"
	"mcauth/internal/stream"
)

// MultiStreamConfig drives a served-scenario simulation: a live
// internal/server instance multiplexing many streams, each subscriber a
// receiver behind independent Bernoulli-style loss. Unlike Run (one
// sender, virtual time), this exercises the real concurrent serving path
// end to end — sharding, batch signing, flush deadlines, subscriber
// queues — with loss applied between server and receiver.
type MultiStreamConfig struct {
	// Streams is how many independent authenticated streams to open
	// (IDs 1..Streams).
	Streams int
	// BlocksPerStream is how many full blocks each stream publishes.
	BlocksPerStream int
	// Scheme builds stream id's scheme from the server's batch-capable
	// signer. Nil defaults to an 8-packet EMSS-style chain via the
	// caller; Scheme is required.
	Scheme func(id uint64, signer crypto.Signer) (scheme.Scheme, error)
	// Receivers is how many independent lossy subscribers to attach.
	Receivers int
	// Loss is the per-receiver loss process (nil = lossless).
	Loss loss.Model
	// Seed derives every receiver's RNG.
	Seed uint64
	// BatchSize / FlushInterval configure the server's batch signer.
	BatchSize     int
	FlushInterval time.Duration
	// Metrics receives the server.* instruments (nil disables).
	Metrics *obs.Registry
}

// MultiStreamResult aggregates a served-scenario run.
type MultiStreamResult struct {
	// Published is the total messages accepted across all streams.
	Published int
	// AuthRatio is authenticated/published averaged over receivers;
	// MinAuthRatio is the worst single receiver.
	AuthRatio    float64
	MinAuthRatio float64
	// SubscriberDrops counts packets lost to subscriber backpressure
	// (on top of the configured loss process).
	SubscriberDrops int64
	// Amortization is the server's signature amortization ratio
	// (block roots per underlying signature).
	Amortization float64
}

// RunMultiStream executes the scenario and tears the server down.
func RunMultiStream(cfg MultiStreamConfig) (*MultiStreamResult, error) {
	if cfg.Streams < 1 || cfg.BlocksPerStream < 1 || cfg.Receivers < 1 {
		return nil, errors.New("netsim: streams, blocks and receivers must be >= 1")
	}
	if cfg.Scheme == nil {
		return nil, errors.New("netsim: nil scheme factory")
	}
	key := crypto.NewSignerFromString(fmt.Sprintf("mcauth-multistream-%d", cfg.Seed))
	srv, err := server.New(server.Config{
		Signer:        key,
		BatchSize:     cfg.BatchSize,
		FlushInterval: cfg.FlushInterval,
		// Large enough that subscriber loss is the configured process,
		// not queue overflow, at simulation speeds.
		MaxSubscriberQueue: 1 << 16,
		Metrics:            cfg.Metrics,
	})
	if err != nil {
		return nil, err
	}
	blockSizes := make(map[uint64]int, cfg.Streams)
	for id := uint64(1); id <= uint64(cfg.Streams); id++ {
		id := id
		if err := srv.OpenStream(id, func(signer crypto.Signer) (scheme.Scheme, error) {
			s, err := cfg.Scheme(id, signer)
			if err == nil {
				blockSizes[id] = s.BlockSize()
			}
			return s, err
		}); err != nil {
			srv.Close()
			return nil, err
		}
	}

	type recvResult struct {
		authenticated int
		err           error
	}
	root := stats.NewRNG(cfg.Seed)
	results := make([]chan recvResult, cfg.Receivers)
	subs := make([]*server.Subscriber, cfg.Receivers)
	for r := 0; r < cfg.Receivers; r++ {
		sub, err := srv.Subscribe()
		if err != nil {
			srv.Close()
			return nil, err
		}
		subs[r] = sub
		rng := root.Split()
		done := make(chan recvResult, 1)
		results[r] = done
		go func() {
			// Receiver-side verifier stack: an independent scheme
			// instance per stream (same key, so signatures verify),
			// behind the serving tier's verifying sink.
			sink, err := serve.NewVerifySink(serve.VerifyConfig{
				NewReceiver: func(id uint64) (*stream.Receiver, error) {
					s, err := cfg.Scheme(id, crypto.BatchCapable(key))
					if err != nil {
						return nil, err
					}
					return stream.NewReceiver(s, cfg.BlocksPerStream+2)
				},
				MaxStreams: cfg.Streams,
			})
			if err != nil {
				done <- recvResult{err: err}
				return
			}
			for d := range sub.C() {
				if cfg.Loss != nil && rng.Bernoulli(cfg.Loss.Rate()) {
					continue
				}
				if err = sink.Packet(d.StreamID, d.Packet); err != nil {
					break
				}
			}
			// Deadline flushes pad partial blocks with empty payloads;
			// Authed counts only real messages.
			done <- recvResult{int(sink.Authed), err}
		}()
	}

	published := 0
	for id := uint64(1); id <= uint64(cfg.Streams); id++ {
		n := blockSizes[id] * cfg.BlocksPerStream
		for i := 0; i < n; i++ {
			if err := srv.Publish(id, []byte(fmt.Sprintf("s%d-m%d", id, i))); err != nil {
				srv.Close()
				return nil, err
			}
			published++
		}
	}
	amort := func() float64 { return srv.BatchTotals().AmortizationRatio() }
	if err := srv.Close(); err != nil {
		return nil, err
	}

	out := &MultiStreamResult{Published: published, MinAuthRatio: 1, Amortization: amort()}
	for r := 0; r < cfg.Receivers; r++ {
		res := <-results[r]
		if res.err != nil {
			return nil, res.err
		}
		ratio := float64(res.authenticated) / float64(published)
		out.AuthRatio += ratio / float64(cfg.Receivers)
		if ratio < out.MinAuthRatio {
			out.MinAuthRatio = ratio
		}
		out.SubscriberDrops += subs[r].Drops()
	}
	return out, nil
}
