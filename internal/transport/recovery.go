// Recovery: the paper assumes the signature packet "always arrives" —
// achieved in practice by sending it multiple times. Over the serving
// tier's byte streams that assumption is earned after the fact: the
// server and every relay keep recent blocks in a bounded RepairStore and
// replay them as the catch-up a resume hello (session.go) asks for.

package transport

import (
	"fmt"
	"sync"

	"mcauth/internal/packet"
)

// RepairStore retains recent blocks' packets so a sender can replay them
// to a resuming subscriber. It is bounded: beyond maxBlocks, the oldest
// block is evicted, and a resume from before it replays only what is
// left. Safe for concurrent use.
type RepairStore struct {
	mu        sync.Mutex
	maxBlocks int
	blocks    map[uint64][]*packet.Packet
	order     []uint64
}

// NewRepairStore creates a store retaining at most maxBlocks blocks.
func NewRepairStore(maxBlocks int) (*RepairStore, error) {
	if maxBlocks < 1 {
		return nil, fmt.Errorf("transport: repair store size %d must be >= 1", maxBlocks)
	}
	return &RepairStore{
		maxBlocks: maxBlocks,
		blocks:    make(map[uint64][]*packet.Packet),
	}, nil
}

// Add appends packets to a block without replacing what is already stored
// — the serving tier stores a block in two phases (data packets at emit,
// withheld signature packets once the batch root is signed). Adding a new
// block past maxBlocks evicts the oldest.
func (rs *RepairStore) Add(blockID uint64, pkts []*packet.Packet) {
	if len(pkts) == 0 {
		return
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if _, exists := rs.blocks[blockID]; !exists {
		rs.order = append(rs.order, blockID)
	}
	rs.blocks[blockID] = append(rs.blocks[blockID], pkts...)
	for len(rs.blocks) > rs.maxBlocks {
		oldest := rs.order[0]
		rs.order = rs.order[1:]
		delete(rs.blocks, oldest)
	}
}

// Since returns every retained packet of every block with ID >= from, in
// insertion order of blocks — the session-resume catch-up replay. The
// packets themselves are shared, not copied; callers must not mutate them.
func (rs *RepairStore) Since(from uint64) []*packet.Packet {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var out []*packet.Packet
	for _, id := range rs.order {
		if id < from {
			continue
		}
		out = append(out, rs.blocks[id]...)
	}
	return out
}

// Has reports whether the store retains the packet at index of block
// blockID.
func (rs *RepairStore) Has(blockID uint64, index uint32) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, p := range rs.blocks[blockID] {
		if p.Index == index {
			return true
		}
	}
	return false
}
