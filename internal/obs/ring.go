package obs

// ring keeps the newest limit values pushed to it, oldest first: every
// value when limit is negative, none when it is zero (the zero ring). It
// grows as it fills, so a ring nothing is pushed to holds no memory for the
// collector to scan.
type ring[T any] struct {
	buf   []T
	start int // index of the oldest value once full
	limit int
}

func newRing[T any](limit int) ring[T] { return ring[T]{limit: limit} }

// push stores v, evicting the oldest value when full.
func (r *ring[T]) push(v T) {
	if r.limit < 0 || len(r.buf) < r.limit {
		r.buf = append(r.buf, v)
		return
	}
	if r.limit == 0 {
		return
	}
	r.buf[r.start] = v
	r.start++
	if r.start == len(r.buf) {
		r.start = 0
	}
}

// snapshot copies the held values oldest-first.
func (r *ring[T]) snapshot() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.start:]...)
	return append(out, r.buf[:r.start]...)
}
