package par

// The window barrier. A multi-rank Run starts one goroutine per rank and
// has no coordinator goroutine: each rank runs its window, then decrements
// one countdown, and the rank that takes it to zero runs the serial phase
// itself — settling the window that just ended and classifying the next —
// before releasing the next window's ranks by bumping their epochs. The
// countdown reaching zero orders every rank's window before the serial
// phase, so the serial phase sees the same consistent cut a coordinator
// would after collecting every arrival. A rank waiting for its next epoch
// spins briefly (engine work per window is a few microseconds, so most
// hand-offs complete inside the spin) and then parks on a channel.
//
// Run's own goroutine never runs a window. It waits for the loop to finish
// and drives the stall watchdog from a single ticker, which is what lets it
// abandon a rank whose handler is blocked outside the event loop.

import (
	"runtime"
	"sync/atomic"
	"time"
)

const (
	// spinLimit is how many times a waiting rank polls its epoch before it
	// parks; it yields the processor every 32 polls so a spinning rank
	// cannot starve one that still has a window to run.
	spinLimit = 1 << 12
	// watchdogTicks is the number of ticker periods per watchdog period. A
	// watchdog stage fires after that many ticks without progress: between
	// one period and one period plus a tick after the last window ended.
	watchdogTicks = 4
	// abandonBias is added to the countdown by the watchdog's second stage.
	// No rank still in its window can then take the countdown to zero, so
	// none runs a serial phase after Run has returned.
	abandonBias = 1 << 40
)

// slot is one rank's hand-off state for one Run call.
type slot struct {
	// epoch is bumped to release the rank's next window, or to stop it.
	epoch atomic.Uint64
	// parked is set by the rank before it blocks on wake. The releaser
	// bumps epoch first and then swaps parked, and the rank sets parked
	// before its last look at epoch, so at least one of them sees the
	// other and a wake-up is never lost.
	parked atomic.Bool
	// busy is set while the rank is released and has not yet arrived; the
	// stall diagnostic reads it.
	busy atomic.Bool
	wake chan struct{}
}

// signal bumps the epoch and wakes the rank if it is parked.
func (s *slot) signal() {
	s.epoch.Add(1)
	if s.parked.Swap(false) {
		s.wake <- struct{}{}
	}
}

// wait returns the slot's epoch once it differs from seen: a bounded spin,
// then a park. Each token on wake answers exactly one parked=true, so the
// 1-buffered channel never holds a stale token.
func (s *slot) wait(seen uint64) uint64 {
	for i := 1; ; i++ {
		if e := s.epoch.Load(); e != seen {
			return e
		}
		if i < spinLimit {
			if i%32 == 0 {
				runtime.Gosched()
			}
			continue
		}
		s.parked.Store(true)
		if e := s.epoch.Load(); e != seen {
			if !s.parked.Swap(false) {
				<-s.wake // a signaller claimed the park; take its token
			}
			return e
		}
		<-s.wake
	}
}

// barrier is the per-Run state of the window loop.
type barrier struct {
	r *Runner
	// step is the mode's serial phase (see runWindows).
	step   func() ([]*rank, error)
	active []*rank
	slots  []slot
	// pending counts the ranks of the current window still running it.
	pending atomic.Int64
	// stalled is set by the watchdog's first stage; the next serial phase
	// ends the loop with a stall diagnostic instead of releasing a window.
	stalled atomic.Bool
	stop    atomic.Bool
	finish  chan error
}

// runWindows drives the window loop of one Run call and returns the error
// that ended it. step is the serial phase: it runs with no window in
// flight — first on the calling goroutine, then on whichever rank arrives
// last — settles the window that just ended, and returns the ranks to run
// next with their target set, or none to end the loop.
//
// With a watchdog set, a watchdog period in which no rank finishes a
// window counts as zero progress. The first stage interrupts every engine
// (which unsticks even a zero-delay event loop: the engine polls its
// interrupt flag every few events) and makes the next serial phase end the
// loop with ErrStalled. If the ranks still have not all arrived a period
// later, some rank is blocked outside the event loop (host I/O, a
// channel); Run returns ErrStalled with what the ranks last published and
// abandons their goroutines.
func (r *Runner) runWindows(step func() ([]*rank, error)) error {
	active, err := step()
	if err != nil || len(active) == 0 {
		return err
	}
	b := &barrier{r: r, step: step, slots: make([]slot, len(r.ranks)), finish: make(chan error, 1)}
	for i, rk := range r.ranks {
		b.slots[i].wake = make(chan struct{}, 1)
		go b.work(rk, &b.slots[i])
	}
	b.release(active)
	if r.watchdog <= 0 {
		return <-b.finish
	}
	tick := time.NewTicker(max(r.watchdog/watchdogTicks, 1))
	defer tick.Stop()
	last, quiet := r.windowsDone(), 0
	for {
		select {
		case err := <-b.finish:
			if err == nil && b.stalled.Load() {
				// The loop ended as the first stage fired: the engines
				// are interrupted, so report the stall.
				err = r.stallError(b.active, nil)
			}
			return err
		case <-tick.C:
		}
		if n := r.windowsDone(); n != last && !b.stalled.Load() {
			last, quiet = n, 0
			continue
		}
		if quiet++; quiet < watchdogTicks {
			continue
		}
		quiet = 0
		if !b.stalled.Load() {
			b.stalled.Store(true)
			for _, rk := range r.ranks {
				rk.sim.Engine().Interrupt()
			}
			continue
		}
		if b.pending.Add(abandonBias) == abandonBias {
			// Every rank has arrived and the serial phase, which sees
			// the stalled flag, is ending the loop.
			continue
		}
		arrived := make([]bool, len(b.slots))
		for i := range b.slots {
			arrived[i] = !b.slots[i].busy.Load()
		}
		err := r.stallError(b.active, arrived)
		b.end()
		return err
	}
}

// windowsDone sums the windows every rank has finished: the watchdog's
// progress counter.
func (r *Runner) windowsDone() uint64 {
	var n uint64
	for _, rk := range r.ranks {
		n += rk.pubWindows.Load()
	}
	return n
}

// work is rank rk's goroutine: run each released window, arrive, and run
// the serial phase when arriving last.
func (b *barrier) work(rk *rank, s *slot) {
	var seen uint64
	for {
		seen = s.wait(seen)
		if b.stop.Load() {
			return
		}
		rk.runWindow(rk.target)
		rk.publish()
		s.busy.Store(false)
		if b.pending.Add(-1) == 0 {
			b.serial()
		}
	}
}

// serial runs the serial phase on the last rank to arrive and either
// releases the next window or ends the loop.
func (b *barrier) serial() {
	if b.stalled.Load() {
		b.end()
		b.finish <- b.r.stallError(b.active, nil)
		return
	}
	active, err := b.step()
	if err != nil || len(active) == 0 {
		b.end()
		b.finish <- err
		return
	}
	b.release(active)
}

// release starts the next window on the given ranks.
func (b *barrier) release(active []*rank) {
	b.active = active
	b.pending.Store(int64(len(active)))
	for _, rk := range active {
		s := &b.slots[rk.id]
		s.busy.Store(true)
		s.signal()
	}
}

// end stops every rank goroutine.
func (b *barrier) end() {
	b.stop.Store(true)
	for i := range b.slots {
		b.slots[i].signal()
	}
}
