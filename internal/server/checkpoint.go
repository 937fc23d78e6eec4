package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Checkpoint is the serving tier's crash-recovery log: a small file
// recording, per stream, a *reserved* block-ID watermark strictly above
// every block the daemon may ever have emitted. Reservation is
// write-ahead — a stream durably reserves a chunk of block IDs *before*
// emitting into it — so a daemon killed at any instant and restarted from
// the same checkpoint resumes each stream at its watermark and can never
// emit two different blocks under one (stream, block) identity. In-flight
// verifiers therefore see blocks terminate cleanly (a killed partial block
// simply never completes; its ID is abandoned), never fork.
//
// A graceful shutdown tightens the watermarks to the exact next block IDs
// and marks the checkpoint clean, so a clean restart leaves no ID gap. A
// crash leaves a gap of at most one reservation chunk per stream — block
// IDs jump forward, which receivers treat like any other wholly-lost
// blocks.
type Checkpoint struct {
	path string

	mu       sync.Mutex
	reserved map[uint64]uint64 // stream ID -> first unreserved block ID
	clean    bool
}

// checkpointState is the JSON file layout.
type checkpointState struct {
	// Streams maps stream ID to its reserved watermark: every block the
	// process may have emitted has a strictly smaller ID.
	Streams map[uint64]uint64 `json:"streams"`
	// Clean records whether the last shutdown drained and flushed
	// everything (watermarks are then exact next-block IDs).
	Clean bool `json:"clean"`
}

// OpenCheckpoint loads (or initializes) the checkpoint file at path. A
// missing file starts empty; a present one must parse, since silently
// ignoring a corrupt checkpoint could fork block IDs.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	cp := &Checkpoint{path: path, reserved: make(map[uint64]uint64)}
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return cp, nil
	}
	if err != nil {
		return nil, fmt.Errorf("server: checkpoint %s: %w", path, err)
	}
	var st checkpointState
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("server: checkpoint %s: %w", path, err)
	}
	if st.Streams != nil {
		cp.reserved = st.Streams
	}
	cp.clean = st.Clean
	return cp, nil
}

// isClean reports whether the checkpoint was written by a graceful shutdown
// (true) or left behind by a crash (false once any reservation lands).
func (cp *Checkpoint) isClean() bool {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.clean
}

// startBlock returns where a restored stream must begin: its reserved
// watermark, or 0 for streams the checkpoint has never seen.
func (cp *Checkpoint) startBlock(streamID uint64) uint64 {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.reserved[streamID]
}

// reserve durably raises the stream's watermark to at least through,
// returning only after the file is synced — the write-ahead step emit
// depends on. Raising also clears the clean flag: the process is live
// again.
func (cp *Checkpoint) reserve(streamID, through uint64) error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.reserved[streamID] >= through && !cp.clean {
		return nil
	}
	if cp.reserved[streamID] < through {
		cp.reserved[streamID] = through
	}
	cp.clean = false
	return cp.writeLocked()
}

// markClean records the exact next block IDs at the end of a graceful
// drain, so a clean restart resumes without any ID gap.
func (cp *Checkpoint) markClean(next map[uint64]uint64) error {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	for id, n := range next {
		// A clean drain emitted everything: the exact next ID supersedes
		// any wider crash-safety reservation.
		cp.reserved[id] = n
	}
	cp.clean = true
	return cp.writeLocked()
}

// writeLocked persists the state atomically: temp file in the same
// directory, fsync, rename. Callers hold cp.mu.
func (cp *Checkpoint) writeLocked() error {
	st := checkpointState{Streams: cp.reserved, Clean: cp.clean}
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return fmt.Errorf("server: checkpoint: %w", err)
	}
	dir := filepath.Dir(cp.path)
	f, err := os.CreateTemp(dir, ".checkpoint-*")
	if err != nil {
		return fmt.Errorf("server: checkpoint: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(b); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, cp.path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("server: checkpoint %s: %w", cp.path, err)
	}
	return nil
}
