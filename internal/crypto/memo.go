package crypto

// Memo is a map bounded by two-generation rotation, the eviction every
// verify-path cache uses (SigCache, verifier.SharedCache): inserts and
// promoted hits go to the current generation; when it holds max entries it
// becomes the previous one and the old previous one is dropped. Rotation is
// O(1) per insert, unlike scan-based LRU, and a hot entry survives it by
// being hit. It holds at most 2*max entries. The zero Memo is unusable;
// NewMemo makes one. Not safe for concurrent use: its owner locks.
type Memo[K comparable, V any] struct {
	max       int
	cur, prev map[K]V
	evicted   int64
}

// NewMemo makes a memo of at most 2*max entries (max >= 1).
func NewMemo[K comparable, V any](max int) Memo[K, V] {
	return Memo[K, V]{max: max, cur: make(map[K]V)}
}

// Get looks k up, promoting an entry of the previous generation into the
// current one.
func (m *Memo[K, V]) Get(k K) (V, bool) {
	if v, ok := m.cur[k]; ok {
		return v, true
	}
	v, ok := m.prev[k]
	if ok {
		m.Put(k, v)
	}
	return v, ok
}

// Put stores v under k in the current generation, rotating first when it
// is full.
func (m *Memo[K, V]) Put(k K, v V) {
	if len(m.cur) >= m.max {
		m.evicted += int64(len(m.prev))
		m.prev = m.cur
		m.cur = make(map[K]V, m.max)
	}
	m.cur[k] = v
}

// Len returns the number of entries held, an entry promoted since the last
// rotation counting once per generation.
func (m *Memo[K, V]) Len() int { return len(m.cur) + len(m.prev) }

// Evicted returns how many entries rotation has dropped.
func (m *Memo[K, V]) Evicted() int64 { return m.evicted }
