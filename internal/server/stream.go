package server

import (
	"fmt"
	"sync"

	"mcauth/internal/obs"
	"mcauth/internal/stream"
	"mcauth/internal/transport"
)

// pubStream is one authenticated stream's server-side state. Every sender
// mutation happens under mu — on a publishing goroutine, or on the
// flusher — or on the Close drain once both are gone. Three invariants
// follow and the serving tier relies on them:
//
//   - One stream's blocks are emitted in order: its immediate packets
//     reach every subscriber queue in block-ID order.
//   - Block IDs are reserved in the checkpoint under mu before the block is
//     emitted, so no block is visible under an ID a restart could reuse.
//   - The batch signer's deliver callbacks take no stream lock. They run on
//     whichever goroutine fills the batch or fires its timer, and touch only
//     the DeferredBlock, the RepairStore and the Fanout, so a publisher
//     holding one stream's lock can sign another stream's root without a
//     lock-order cycle.
type pubStream struct {
	srv *Server
	id  uint64

	mu  sync.Mutex
	snd *stream.Sender
	// reserved caches the stream's durably checkpointed block-ID watermark
	// (guarded by mu, like snd). Blocks below it may be emitted without
	// touching the checkpoint; reaching it forces a new write-ahead
	// reservation.
	reserved uint64

	// repair retains recently emitted packets for session-resume catch-up
	// (nil when Config.RepairBlocks is 0).
	repair *transport.RepairStore

	// m holds the stream's registry instruments (per-stream throughput in
	// /metrics); nil-safe when the server has no registry.
	m streamMetrics
}

type streamMetrics struct {
	published *obs.Counter
	blocks    *obs.Counter
}

func newStream(srv *Server, id uint64, snd *stream.Sender) *pubStream {
	return &pubStream{
		srv: srv,
		id:  id,
		snd: snd,
		m: streamMetrics{
			published: srv.cfg.Metrics.Counter(fmt.Sprintf("server.stream.%d.published", id)),
			blocks:    srv.cfg.Metrics.Counter(fmt.Sprintf("server.stream.%d.blocks", id)),
		},
	}
}

// process appends one message, emitting the block it completes. Holds
// st.mu.
func (st *pubStream) process(payload []byte) {
	db, err := st.snd.PushDeferredAt(payload, st.srv.cfg.Clock())
	if err != nil {
		return
	}
	st.emit(db)
}

// flushPartial pads out and emits a partially filled block (deadline
// flush or server drain). Holds st.mu, or runs on the Close drain.
func (st *pubStream) flushPartial() {
	db, err := st.snd.FlushDeferred()
	if err != nil {
		return
	}
	st.emit(db)
}

// ensureReserved write-ahead reserves block IDs through the checkpoint
// before blockID becomes externally visible: nothing is emitted under an
// ID the checkpoint has not durably reserved, so a restart (which resumes
// at the watermark) can never fork a block. Reserving a chunk at a time
// amortizes the fsync over ReserveChunk blocks. Holds st.mu, or runs on
// the Close drain.
func (st *pubStream) ensureReserved(blockID uint64) bool {
	cp := st.srv.cfg.Checkpoint
	if cp == nil || blockID < st.reserved {
		return true
	}
	through := blockID + uint64(st.srv.cfg.ReserveChunk)
	if err := cp.reserve(st.id, through); err != nil {
		return false
	}
	st.reserved = through
	return true
}

// emit delivers a freshly authenticated block: immediate packets fan out
// now, the root goes to the batch signer and its packets follow once the
// signature lands. A nil block (nothing emitted) is a no-op. A block whose
// ID cannot be durably reserved is dropped whole — losing a block is
// recoverable (receivers treat it as wholly lost), emitting an unreserved
// one could fork identities after a crash.
func (st *pubStream) emit(db *stream.DeferredBlock) {
	if db == nil {
		return
	}
	if !st.ensureReserved(db.BlockID) {
		return
	}
	st.srv.m.blocks.Inc()
	st.m.blocks.Inc()
	if spans := st.srv.cfg.Spans; spans.Enabled() {
		spans.Record(obs.Span{
			Kind:   obs.SpanEmit,
			Stream: st.id,
			Block:  db.BlockID,
			TimeNS: st.srv.cfg.Clock().UnixNano(),
		})
	}
	if st.repair != nil {
		st.repair.Add(db.BlockID, db.Immediate)
	}
	for _, p := range db.Immediate {
		st.srv.fan.Deliver(st.id, p)
	}
	if db.Root != nil {
		st.srv.enqueueRoot(st, db)
	}
}
