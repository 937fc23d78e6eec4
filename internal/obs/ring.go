package obs

// ring keeps the newest cap(buf) values pushed to it, oldest first. The
// zero ring holds nothing; size it with newRing.
type ring[T any] struct {
	buf   []T
	start int // index of the oldest value once full
}

func newRing[T any](capacity int) ring[T] {
	return ring[T]{buf: make([]T, 0, capacity)}
}

// push stores v, evicting the oldest value when full.
func (r *ring[T]) push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
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
