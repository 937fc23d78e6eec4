package stream

import (
	"fmt"
	"time"

	"mcauth/internal/packet"
	"mcauth/internal/scheme"
)

// DeferredBlock is one emitted block whose root signature may still be
// pending. Immediate packets are safe to send right away; Held packets
// carry the (not yet attached) signature and must be withheld until
// Root.Attach runs. When the scheme cannot defer signing, Root is nil,
// Held is empty, and the fully signed block sits in Immediate.
type DeferredBlock struct {
	BlockID   uint64
	Immediate []*packet.Packet
	Held      []*packet.Packet
	Root      *scheme.PendingRoot
}

// SetFlushAfter arms the partial-block flush deadline: once a block has
// had messages pending for longer than d (per PushDeferredAt timestamps),
// Due reports true and the owner should flush it. Zero disables
// the deadline. The Sender does not own a clock — callers drive flushing,
// since only they know the serving loop's cadence.
func (snd *Sender) SetFlushAfter(d time.Duration) {
	if d < 0 {
		d = 0
	}
	snd.flushAfter = d
}

// Due reports whether a partial block has been pending since before
// now minus the flush deadline. Always false with no pending messages,
// no deadline, or no timestamped pushes.
func (snd *Sender) Due(now time.Time) bool {
	if len(snd.pending) == 0 || snd.flushAfter == 0 || snd.oldestPending.IsZero() {
		return false
	}
	return now.Sub(snd.oldestPending) >= snd.flushAfter
}

// PushDeferredAt appends one message that arrived at at; when it completes
// a block, the block is authenticated with the root signature deferred
// (see DeferredBlock). Returns nil while the block is still filling. The
// first message of each block starts the flush-deadline clock.
func (snd *Sender) PushDeferredAt(payload []byte, at time.Time) (*DeferredBlock, error) {
	if len(snd.pending) == 0 {
		snd.oldestPending = at
	}
	snd.pending = append(snd.pending, payload)
	if len(snd.pending) < snd.s.BlockSize() {
		return nil, nil
	}
	return snd.emitDeferred()
}

// FlushDeferred pads a partial block and emits it with the root signature
// deferred; (nil, nil) when nothing is pending.
func (snd *Sender) FlushDeferred() (*DeferredBlock, error) {
	if len(snd.pending) == 0 {
		return nil, nil
	}
	for len(snd.pending) < snd.s.BlockSize() {
		snd.pending = append(snd.pending, nil)
	}
	return snd.emitDeferred()
}

// emitDeferred authenticates the pending block, deferring the root
// signature when the scheme supports it and falling back to synchronous
// signing otherwise.
func (snd *Sender) emitDeferred() (*DeferredBlock, error) {
	blockID := snd.blockID
	da, ok := snd.s.(scheme.DeferredAuthenticator)
	if !ok {
		pkts, err := snd.emit()
		if err != nil {
			return nil, err
		}
		return &DeferredBlock{BlockID: blockID, Immediate: pkts}, nil
	}
	pkts, root, err := da.AuthenticateDeferred(blockID, snd.pending)
	if err != nil {
		return nil, fmt.Errorf("stream: block %d: %w", blockID, err)
	}
	snd.spanPush(blockID)
	snd.blockID++
	snd.pending = nil
	snd.oldestPending = time.Time{}
	held := make(map[int]bool, len(root.HeldWire))
	for _, i := range root.HeldWire {
		if i < 0 || i >= len(pkts) {
			return nil, fmt.Errorf("stream: block %d: held wire position %d out of range", blockID, i)
		}
		held[i] = true
	}
	db := &DeferredBlock{BlockID: blockID, Root: root}
	for i, p := range pkts {
		if held[i] {
			db.Held = append(db.Held, p)
		} else {
			db.Immediate = append(db.Immediate, p)
		}
	}
	return db, nil
}
