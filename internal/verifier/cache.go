package verifier

import "fmt"

// SharedCache is an empty shell: no verifier reads it. What a verifier
// authenticates depends on the packets it received alone, so no verifier
// accepts a packet on another verifier's word.
//
// Deprecated: it survives only because the benchmark harness under
// benchmark/ still builds one and passes it to Demux.SetVerifyFastPath,
// which ignores it. It goes when that harness calls the daemon's code
// (ROADMAP item 1a); nothing else may build one.
type SharedCache struct{}

// NewSharedCache returns the empty shell, refusing a size below 1 as the
// cache it replaces did.
//
// Deprecated: see SharedCache.
func NewSharedCache(max int) (*SharedCache, error) {
	if max < 1 {
		return nil, fmt.Errorf("verifier: shared cache size %d must be >= 1", max)
	}
	return &SharedCache{}, nil
}
