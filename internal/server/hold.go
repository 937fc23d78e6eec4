package server

import "time"

// rateUnknown is the root arrival rate before its first measurement.
const rateUnknown = -1.0

// rootHold is the hold rule: how long the first pending root waits for
// company before the batch is signed, given the measured root arrival
// rate in roots per second. A root waits in proportion to how full the
// wait can make the batch,
//
//	hold = flush × min(1, rate·flush / batch)
//
// so flush and batch are ceilings: once a batch can fill inside flush
// (rate ≥ batch/flush) the hold is flush and count-full flushes do the
// signing, and an unknown rate holds for flush too. Below that the batch
// signed after the hold covers 1 + rate·hold roots, so signatures are
// spent at rate/(1 + rate²·flush²/batch) per second, which peaks at
// rate = √batch/flush and never exceeds √batch/flush (half that, in
// fact): the latency a short hold buys is paid for with a bounded number
// of signatures, whatever the load.
func rootHold(flush time.Duration, batch int, rate float64) time.Duration {
	if rate < 0 {
		return flush
	}
	fill := rate * flush.Seconds() / float64(batch)
	if fill >= 1 {
		return flush
	}
	return time.Duration(fill * float64(flush))
}

// rootRate measures the root arrival rate as a pull over the batch
// signer's enqueue counter: the roots enqueued across the last completed
// window of at least one FlushInterval, sampled whenever the signer loop
// wakes. Until a first window completes the rate is unknown — so a cold
// server, and a server whose FlushInterval outlasts its run, hold every
// root for the full FlushInterval. The estimate lags a change in load by
// one window; whatever it reads, the hold stays within FlushInterval.
type rootRate struct {
	window time.Duration
	markAt time.Time
	markN  int64
	perSec float64
}

func (r *rootRate) sample(now time.Time, enqueued int64) float64 {
	if r.markAt.IsZero() {
		r.markAt, r.markN = now, enqueued
		return r.perSec
	}
	if dt := now.Sub(r.markAt); dt >= r.window {
		r.perSec = float64(enqueued-r.markN) / dt.Seconds()
		r.markAt, r.markN = now, enqueued
	}
	return r.perSec
}

// signLoop owns the batch's deadline. enqueueRoot kicks it when a root
// finds the batch empty; the loop arms one timer for rootHold from that
// root's arrival and signs whatever is pending when it fires. A count-full
// flush inside Enqueue empties the batch under an armed timer; the root
// after it kicks again and the timer is re-armed from that root. So a root
// is signed no later than one FlushInterval after the first of its batch
// (plus timer latency), and a fire that finds the batch already signed is
// a no-op. The timer runs on the wall clock, as the flusher's ticker does,
// and so does the rate that sizes it. Stopping the loop stops the timer:
// roots pending at Kill stay unsigned, Close signs them itself once the
// loop has exited.
func (s *Server) signLoop() {
	defer s.loops.Done()
	rate := rootRate{window: s.cfg.FlushInterval, perSec: rateUnknown}
	timer := time.NewTimer(s.cfg.FlushInterval)
	defer timer.Stop()
	// disarm leaves the timer stopped with its channel empty, so a fire
	// that raced a kick cannot sign the next batch early.
	disarm := func() {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
	disarm()
	for {
		select {
		case <-s.loopStop:
			return
		case first := <-s.rootKick:
			perSec := rate.sample(first, s.signer.Totals().Enqueued)
			hold := rootHold(s.cfg.FlushInterval, s.cfg.BatchSize, perSec)
			s.m.rootHoldTarget.Set(hold.Nanoseconds())
			s.m.rootRate.Set(int64(max(perSec, 0)))
			disarm()
			timer.Reset(hold - time.Since(first))
		case <-timer.C:
			if n, err := s.signer.Flush(); err == nil && n > 0 {
				s.m.batchFlushDeadline.Inc()
				s.m.batchFill.Observe(int64(n))
				s.noteBatchTotals()
			}
		}
	}
}
