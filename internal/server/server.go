// Package server is the concurrent serving path: a long-running daemon
// multiplexing many independent authenticated streams. Each stream owns a
// stream.Sender behind its own lock, and Publish does the stream's work —
// block construction, authentication, fan-out of the immediate packets —
// on the goroutine that calls it: streams parallelize across the
// goroutines that publish to them while staying strictly ordered within
// one. Block root signatures are amortized through one crypto.BatchSigner
// — up to BatchSize roots per underlying signature — and held for company
// no longer than the measured root arrival rate can repay (rootHold), or
// until the company that hold waits for is in (fillTarget): a withheld
// signature packet never waits longer than one FlushInterval beyond the
// scheme's own dependence-graph delay bound, and at low load waits a small
// fraction of it.
// Receivers subscribe through bounded queues with drop-and-count
// semantics: under backpressure the server degrades exactly like the
// best-effort multicast network the paper models, and can never deadlock
// behind a slow consumer.
package server

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mcauth/internal/crypto"
	"mcauth/internal/obs"
	"mcauth/internal/packet"
	"mcauth/internal/scheme"
	"mcauth/internal/stream"
	"mcauth/internal/transport"
)

var (
	// ErrClosed is returned once Close has begun.
	ErrClosed = errors.New("server: closed")
	// errUnknownStream is returned for operations on streams never opened
	// (or already closed).
	errUnknownStream = errors.New("server: unknown stream")
	// errStreamExists is returned when opening an already-open stream ID.
	errStreamExists = errors.New("server: stream exists")
)

// Config parameterizes a Server. The zero value of every field except
// Signer is usable; defaults are applied by New.
type Config struct {
	// Signer is the daemon's signing key (required). Schemes opened on the
	// server are built from its batch-capable wrapping, so their verifiers
	// accept both plain and batched signatures.
	Signer crypto.Signer
	// BatchSize is the ceiling on how many block roots one signature
	// covers. A batch is signed as soon as it holds its fill target,
	// min(BatchSize, ⌈1 + rate·hold⌉) roots for the measured root arrival
	// rate and the hold below (see fillTarget): BatchSize while the rate
	// is unmeasured and from the rate that fills it inside FlushInterval
	// up, fewer below it. Default 64.
	BatchSize int
	// FlushInterval is the ceiling on how long a partial block or an
	// unsigned root may sit pending. A partial block waits that long; a
	// batch whose fill target has not come in is signed
	// FlushInterval × min(1, rate·FlushInterval / BatchSize) after its
	// first root, the full FlushInterval while the root arrival rate is
	// still unmeasured. Default 50ms.
	FlushInterval time.Duration
	// MaxSubscriberQueue bounds each subscriber's delivery queue; overflow
	// is dropped and counted, never blocked on. Default 1024.
	MaxSubscriberQueue int
	// Metrics receives server.* instruments (nil disables).
	Metrics *obs.Registry
	// Spans, when non-nil, receives causal lifecycle spans for every
	// stream the server opens: the sender-side half of the end-to-end
	// trace — push when a block is authenticated, emit when the server
	// emits it, sign_attach when its root signature lands
	// (receivers record the other half into their own ring; the two join
	// on the deterministic trace ID of stream and block). Nil disables
	// span recording.
	Spans *obs.SpanSink
	// Clock defaults to time.Now; tests inject virtual time.
	Clock func() time.Time
	// Checkpoint enables crash recovery: streams write-ahead reserve block
	// IDs through it before emitting, restored streams resume at their
	// reserved watermark, and Close records exact positions. Nil disables.
	Checkpoint *Checkpoint
	// ReserveChunk is how many block IDs one checkpoint write reserves —
	// the trade between checkpoint write rate (one fsync per chunk of
	// blocks) and the ID gap a crash leaves. Default 64.
	ReserveChunk int
	// RepairBlocks, when positive, keeps each stream's last RepairBlocks
	// blocks of emitted packets in a RepairStore so reconnecting
	// subscribers can be caught up via ResumeFrom. 0 disables retention.
	RepairBlocks int
	// SigQueueReserve is the tail of each subscriber queue reserved for
	// signature-class packets (signature or key disclosure present). Under
	// backpressure data packets shed first: one lost data packet loses one
	// message, one lost root packet can collapse the whole block's
	// authentication. Default MaxSubscriberQueue/8, minimum 1 (NewFanout).
	SigQueueReserve int
}

func (c Config) withDefaults() (Config, error) {
	if c.Signer == nil {
		return c, errors.New("server: nil signer")
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.BatchSize > crypto.MaxBatch {
		return c, fmt.Errorf("server: batch size %d exceeds %d", c.BatchSize, crypto.MaxBatch)
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 50 * time.Millisecond
	}
	if c.MaxSubscriberQueue <= 0 {
		c.MaxSubscriberQueue = 1024
	}
	if c.ReserveChunk <= 0 {
		c.ReserveChunk = 64
	}
	if c.RepairBlocks < 0 {
		return c, fmt.Errorf("server: repair blocks %d must be >= 0", c.RepairBlocks)
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c, nil
}

// metrics caches the server.* instruments; all fields are nil-safe.
type metrics struct {
	streams            *obs.Gauge
	published          *obs.Counter
	blocks             *obs.Counter
	batchFlushFull     *obs.Counter
	batchFlushDeadline *obs.Counter
	batchFlushDrain    *obs.Counter
	batchFill          *obs.Histogram
	rootHold           *obs.Histogram
	// rootHoldTarget / batchFillTarget / rootRate are the signer loop's
	// numbers as of the last batch it armed: the hold and the fill target
	// it chose, and the root arrival rate (per second, rounded up; 0 while
	// unmeasured) it chose them from.
	rootHoldTarget  *obs.Gauge
	batchFillTarget *obs.Gauge
	rootRate        *obs.Gauge
	// batchSignatures / batchSignedRoots mirror the batch signer's
	// lifetime totals into /metrics; their quotient is the signature
	// amortization ratio.
	batchSignatures  *obs.Gauge
	batchSignedRoots *obs.Gauge
	// resumeCatchup counts packets replayed to reconnecting subscribers.
	resumeCatchup *obs.Counter
}

func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		streams:            reg.Gauge("server.streams"),
		published:          reg.Counter("server.published"),
		blocks:             reg.Counter("server.blocks"),
		batchFlushFull:     reg.Counter("server.batch_flush_full"),
		batchFlushDeadline: reg.Counter("server.batch_flush_deadline"),
		batchFlushDrain:    reg.Counter("server.batch_flush_drain"),
		batchFill:          reg.Histogram("server.batch_fill"),
		rootHold:           reg.Histogram("server.root_hold_ns"),
		rootHoldTarget:     reg.Gauge("server.root_hold_target_ns"),
		batchFillTarget:    reg.Gauge("server.batch_fill_target"),
		rootRate:           reg.Gauge("server.root_rate_per_s"),
		batchSignatures:    reg.Gauge("server.batch_signatures"),
		batchSignedRoots:   reg.Gauge("server.batch_signed_roots"),
		resumeCatchup:      reg.Counter("server.resume_catchup_packets"),
	}
}

// Server multiplexes authenticated streams with batched signing. Create
// with New, stop with Close.
type Server struct {
	cfg    Config
	signer *crypto.BatchSigner
	m      metrics

	mu      sync.Mutex
	streams map[uint64]*pubStream
	closed  bool
	// pubWG counts in-flight Publish calls; Close and Kill wait for them
	// before they take the streams over.
	pubWG sync.WaitGroup

	// fan is the subscriber set every emitted packet is delivered to.
	fan *Fanout

	// loopStop ends the flusher and the signer loop; loops counts them.
	// rootKick wakes the signer loop, with the time a root found the batch
	// empty. fillTarget is the pending count at which enqueueRoot signs
	// the batch, set by the signer loop (see fillTarget).
	loopStop   chan struct{}
	loops      sync.WaitGroup
	rootKick   chan time.Time
	fillTarget atomic.Int64
}

// New starts a server (its flusher and signer loop run until Close or
// Kill).
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	bs, err := crypto.NewBatchSigner(cfg.Signer, cfg.BatchSize)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		signer:  bs,
		m:       newMetrics(cfg.Metrics),
		streams: make(map[uint64]*pubStream),
		fan: NewFanout(cfg.MaxSubscriberQueue, cfg.SigQueueReserve, FanoutMetrics{
			Delivered: cfg.Metrics.Counter("server.packets_delivered"),
			Dropped:   cfg.Metrics.Counter("server.packets_dropped_backpressure"),
			ShedData:  cfg.Metrics.Counter("server.shed_data"),
			ShedSig:   cfg.Metrics.Counter("server.shed_sig"),
		}),
		loopStop: make(chan struct{}),
		rootKick: make(chan time.Time, 1),
	}
	s.m.rootHoldTarget.Set(cfg.FlushInterval.Nanoseconds())
	s.m.batchFillTarget.Set(int64(cfg.BatchSize))
	s.fillTarget.Store(int64(cfg.BatchSize))
	s.loops.Add(2)
	go s.flusher()
	go s.signLoop()
	return s, nil
}

// schemeSigner returns the batch-aware signing key stream schemes must be
// built from (OpenStream passes it to the scheme factory).
func (s *Server) schemeSigner() crypto.Signer { return crypto.BatchCapable(s.cfg.Signer) }

// OpenStream creates stream id. The factory receives the server's
// batch-aware signer and must construct the stream's scheme from it, so
// the scheme's verifiers accept batched signatures.
func (s *Server) OpenStream(id uint64, build func(signer crypto.Signer) (scheme.Scheme, error)) error {
	if build == nil {
		return errors.New("server: nil scheme factory")
	}
	sch, err := build(s.schemeSigner())
	if err != nil {
		return fmt.Errorf("server: stream %d: %w", id, err)
	}
	// With a checkpoint, the stream restarts at its reserved watermark:
	// strictly above every block any earlier incarnation may have emitted,
	// so restarted streams can never fork a block ID.
	var start uint64
	if s.cfg.Checkpoint != nil {
		start = s.cfg.Checkpoint.startBlock(id)
	}
	snd, err := stream.NewSender(sch, start)
	if err != nil {
		return fmt.Errorf("server: stream %d: %w", id, err)
	}
	snd.SetFlushAfter(s.cfg.FlushInterval)
	snd.SetSpans(s.cfg.Spans, id)
	st := newStream(s, id, snd)
	st.reserved = start
	if s.cfg.RepairBlocks > 0 {
		if st.repair, err = transport.NewRepairStore(s.cfg.RepairBlocks); err != nil {
			return fmt.Errorf("server: stream %d: %w", id, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.streams[id]; ok {
		return errStreamExists
	}
	s.streams[id] = st
	s.m.streams.Set(int64(len(s.streams)))
	return nil
}

// Publish appends one message to stream id and does the stream's work
// on the calling goroutine, under the stream's lock: a message that
// completes a block returns only after the block is authenticated, its
// immediate packets are fanned out and its root is in the batch signer.
// Concurrent publishers to one stream take turns; publishers to different
// streams run in parallel.
func (s *Server) Publish(id uint64, payload []byte) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	st, ok := s.streams[id]
	if !ok {
		s.mu.Unlock()
		return errUnknownStream
	}
	s.pubWG.Add(1)
	s.mu.Unlock()
	defer s.pubWG.Done()

	st.mu.Lock()
	st.process(payload)
	st.mu.Unlock()
	s.m.published.Inc()
	st.m.published.Inc()
	return nil
}

// flusher enforces the partial-block deadline: a block older than
// FlushInterval is padded out, at most one tick (== FlushInterval) late.
// Its root then goes the way of every root — into the batch, whose
// deadline signLoop owns — so receiver-visible signature delay is bounded
// by one FlushInterval on top of block fill and the scheme's own
// dependence-graph delay.
func (s *Server) flusher() {
	defer s.loops.Done()
	t := time.NewTicker(s.cfg.FlushInterval)
	defer t.Stop()
	var due []*pubStream // reused tick to tick; only this goroutine touches it
	for {
		select {
		case <-s.loopStop:
			return
		case <-t.C:
		}
		now := s.cfg.Clock()
		s.mu.Lock()
		due = due[:0]
		for _, st := range s.streams {
			due = append(due, st)
		}
		s.mu.Unlock()
		// In stream ID order, so the order of deadline flushes, and with it
		// the leaf order of the batch their roots join, repeats run to run.
		slices.SortFunc(due, func(a, b *pubStream) int { return cmp.Compare(a.id, b.id) })
		for _, st := range due {
			// A stream busy publishing is flushed on the next tick
			// rather than stalling the flusher behind it.
			if !st.mu.TryLock() {
				continue
			}
			if st.snd.Due(now) {
				st.flushPartial()
			}
			st.mu.Unlock()
		}
	}
}

// enqueueRoot hands a pending block root to the batch signer and signs
// the batch if the root brings it to its fill target; the deliver callback
// attaches the signature and releases the held packets. Called under st's
// lock (or on the Close drain), so a count-full flush triggered here
// delivers for every stream that contributed to the batch — which is why
// the callback takes no stream lock.
func (s *Server) enqueueRoot(st *pubStream, db *stream.DeferredBlock) {
	t0 := s.cfg.Clock()
	pending, err := s.signer.Enqueue(db.Root.Content, func(sig []byte) {
		db.Root.Attach(sig)
		hold := s.cfg.Clock().Sub(t0)
		s.m.rootHold.Observe(hold.Nanoseconds())
		if s.cfg.Spans.Enabled() {
			s.cfg.Spans.Record(obs.Span{
				Kind:   obs.SpanSignAttach,
				Stream: st.id,
				Block:  db.BlockID,
				TimeNS: s.cfg.Clock().UnixNano(),
				DurNS:  hold.Nanoseconds(),
			})
		}
		// Retain for resume only now that the signature is attached: a
		// replayed root packet without its signature would be useless, and
		// storing earlier would race Attach against a concurrent ResumeFrom.
		if st.repair != nil {
			st.repair.Add(db.BlockID, db.Held)
		}
		for _, p := range db.Held {
			s.fan.Deliver(st.id, p)
		}
	})
	if err != nil {
		// Only reachable via signer misuse (validated sizes): the block is
		// lost rather than the server crashed.
		return
	}
	if pending == 1 {
		// First root of a new batch: its hold starts now. A kick still
		// waiting is older, so the loop arms no later than this root asks.
		select {
		case s.rootKick <- time.Now():
		default:
		}
	}
	// A batch at its fill target is count-full: Enqueue signs one that
	// reaches BatchSize itself (pending 0), a lower target is signed here.
	switch fill := int(s.fillTarget.Load()); {
	case pending == 0:
		s.noteFlush(s.m.batchFlushFull, s.cfg.BatchSize)
	case pending >= fill:
		if n, err := s.signer.FlushAt(fill); err == nil && n > 0 {
			s.noteFlush(s.m.batchFlushFull, n)
		}
	}
}

// noteFlush counts one flush of n roots under its kind and mirrors the
// signer's totals.
func (s *Server) noteFlush(kind *obs.Counter, n int) {
	kind.Inc()
	s.m.batchFill.Observe(int64(n))
	s.noteBatchTotals()
}

// noteBatchTotals mirrors the signer's lifetime totals into the gauges
// after each flush, so /metrics carries the amortization ratio.
func (s *Server) noteBatchTotals() {
	tot := s.signer.Totals()
	s.m.batchSignatures.Set(tot.Signatures)
	s.m.batchSignedRoots.Set(tot.SignedRoots)
}

// streamIDs lists the open stream IDs (unordered).
func (s *Server) streamIDs() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, 0, len(s.streams))
	for id := range s.streams {
		out = append(out, id)
	}
	return out
}

// lookup returns the live stream's handle (nil when unknown).
func (s *Server) lookup(id uint64) *pubStream {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.streams[id]
}

// BatchTotals snapshots the batch signer's lifetime counters; the
// amortization ratio is Totals().AmortizationRatio().
func (s *Server) BatchTotals() crypto.BatchTotals { return s.signer.Totals() }

// ResumeFrom returns every retained packet of stream id with block ID >=
// from (the session-resume catch-up replay), counting the replay in
// server.resume_catchup_packets. Nil when the stream is unknown or
// retention is disabled (RepairBlocks == 0). The packets are shared with
// the repair store; callers must not mutate them.
func (s *Server) ResumeFrom(id uint64, from uint64) []*packet.Packet {
	st := s.lookup(id)
	if st == nil || st.repair == nil {
		return nil
	}
	pkts := st.repair.Since(from)
	s.m.resumeCatchup.Add(int64(len(pkts)))
	return pkts
}

// stop runs the shutdown steps Close and Kill share: mark closed, stop
// the flusher and the signer loop (waiting out a signature in progress, so
// none lands after stop returns), and wait out in-flight publishes.
// Returns the surviving streams (now exclusively owned by the caller) and
// false if the server was already stopped.
func (s *Server) stop() ([]*pubStream, bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false
	}
	s.closed = true
	s.mu.Unlock()

	close(s.loopStop)
	s.loops.Wait()
	s.pubWG.Wait()
	// No publisher or flusher is left; stream state is exclusively ours.
	s.mu.Lock()
	streams := make([]*pubStream, 0, len(s.streams))
	for _, st := range s.streams {
		streams = append(streams, st)
	}
	s.streams = make(map[uint64]*pubStream)
	s.m.streams.Set(0)
	s.mu.Unlock()
	return streams, true
}

// Close drains and stops the server: it waits for in-flight publishes,
// pads out partial blocks, signs the final batch, records a clean
// checkpoint, and closes every subscriber channel. Publish calls that
// begin after Close fail with ErrClosed.
func (s *Server) Close() error {
	streams, ok := s.stop()
	if !ok {
		return ErrClosed
	}
	for _, st := range streams {
		st.flushPartial()
	}
	if n, err := s.signer.Flush(); err != nil {
		return err
	} else if n > 0 {
		s.m.batchFlushDrain.Inc()
		s.m.batchFill.Observe(int64(n))
	}
	s.noteBatchTotals()
	var cpErr error
	if s.cfg.Checkpoint != nil {
		// Everything is emitted and signed: tighten the watermarks to the
		// exact next block IDs so a clean restart leaves no ID gap.
		next := make(map[uint64]uint64, len(streams))
		for _, st := range streams {
			next[st.id] = st.snd.NextBlockID()
		}
		cpErr = s.cfg.Checkpoint.markClean(next)
	}
	s.fan.Close()
	return cpErr
}

// Kill stops the server the way a crash would: no partial-block flush, no
// final batch signature, no clean checkpoint — pending batch roots die
// unsigned, their hold timer stopped with the signer loop, so their
// blocks' withheld signature packets are never
// delivered, exactly what subscribers of a SIGKILLed daemon observe. The
// write-ahead checkpoint still guarantees a restart never reuses a block
// ID. Publishes already in flight finish first; subscriber channels
// close. Chaos harnesses call this between cycles.
func (s *Server) Kill() {
	if _, ok := s.stop(); !ok {
		return
	}
	s.fan.Close()
}
