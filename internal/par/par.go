// Package par is gosst's parallel discrete-event runtime: conservative and
// optimistic barrier-synchronized PDES in the Structural Simulation Toolkit
// mold.
//
// The model graph is partitioned into ranks, each with its own sequential
// sim.Engine running in its own goroutine. Ranks only interact over links,
// and every cross-rank link has a declared nonzero latency, so link
// latencies bound how soon one rank can affect another (the lookahead).
// Ranks advance through half-open windows bounded by a conservative
// horizon and meet at a barrier between windows, where the last rank to
// arrive runs the serial phase (see barrier.go). The conservative
// synchronization modes derive that horizon (see SyncMode): the classic
// global window equal to the
// single minimum cross-rank latency, and the default topology-aware
// pairwise mode where each rank's horizon is computed from the other
// ranks' next-event-time snapshots plus a per-rank-pair lookahead matrix
// (all-pairs shortest latency paths over the partitioned link graph).
// Ranks with no work below their horizon are skipped without a dispatch,
// and when no rank has work the serial phase fast-forwards every rank
// straight to the globally earliest pending event. The speculative and
// adaptive modes (see speculative.go) let ranks execute optimistically
// past the pairwise horizon, checkpointing through the snapshot codec and
// rolling back on straggler arrivals; cross-rank sends are held until
// committed, so no anti-messages are needed. Remote events are staged per
// destination in canonical (time, send time, source rank, sequence) order
// and only scheduled once the destination's window covers them, so a
// parallel run is bit-for-bit deterministic — independent of goroutine
// scheduling, rank count, and sync mode, conservative or speculative.
package par

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"sst/internal/sim"
)

// ErrStalled reports that the progress watchdog fired: no rank completed a
// synchronization window within the watchdog period. The wrapping error
// carries per-rank diagnostics (clock, pending events, outbox depth).
var ErrStalled = errors.New("par: runner stalled")

// DefaultWatchdog is the default zero-progress limit. A synchronization
// window that takes longer than this without any rank finishing is treated
// as a stall — a zero-delay event loop, a handler blocked on host I/O, or a
// mis-partitioned model — and Run returns a diagnostic error instead of
// hanging. Models whose windows legitimately run longer should raise it via
// SetWatchdog; SetWatchdog(0) disables the check entirely.
const DefaultWatchdog = 30 * time.Second

// remoteEvent is one payload crossing a rank boundary. sent (the sender's
// clock at the Send call) participates in the canonical merge order: a
// sequential run inserts a delivery into the queue at send time, so
// same-arrival-time deliveries tie-break chronologically by send — the
// staging heap reproduces that regardless of which barrier round carried
// each event across.
type remoteEvent struct {
	time    sim.Time
	sent    sim.Time
	srcRank int
	seq     uint64
	dst     *sim.Port
	payload any
}

// rank is one partition: an engine plus per-destination outboxes.
type rank struct {
	id       int
	sim      *sim.Simulation
	outboxes [][]remoteEvent // indexed by destination rank
	sendSeq  uint64
	handled  uint64
	// base is how far this rank has conservatively advanced: every event
	// below base has been processed, and no future remote event can arrive
	// below it. horizon is the upper bound of the window being considered
	// this round. Both are owned by the serial phase.
	base    sim.Time
	horizon sim.Time
	// staging holds remote events addressed to this rank that its window
	// has not yet reached, in canonical (time, sent, srcRank, seq) heap order.
	staging remoteHeap
	// Cumulative run metrics, updated only by the serial phase between
	// windows (never during one), so reading them after Run returns is
	// race-free.
	events      uint64
	idleWindows uint64
	skipped     uint64
	// err captures a panic raised by this rank's event handlers during a
	// window; the serial phase surfaces it after the barrier.
	err error

	// target bounds the window the rank runs next: its horizon in the
	// conservative modes, its leg target in the speculative ones.
	target sim.Time

	// Speculative-mode state (see speculative.go). spec is the per-Run
	// rollback bookkeeping; specOn arms the replay-dedupe guard in the
	// cross-rank intercept.
	// rollbacks/replayed/fallbacks/promotions are cumulative counters
	// surfaced through Metrics and persisted by Snapshot; the specPeak*
	// fields record high-water marks for the memory-discipline tests.
	spec          *specState
	specOn        bool
	rollbacks     uint64
	replayed      uint64
	fallbacks     uint64
	promotions    uint64
	specPeakCkpts int
	specPeakBytes int
	specPeakLog   int

	// Snapshot fields published by the rank goroutine at each barrier
	// arrival and read by the watchdog for stall diagnostics and progress.
	// Atomics so Run's goroutine may read them while ranks still run.
	pubClock   atomic.Int64
	pubPending atomic.Int64
	pubOutbox  atomic.Int64
	pubWindows atomic.Uint64
}

// publish records the rank's post-window state for the stall watchdog.
func (rk *rank) publish() {
	eng := rk.sim.Engine()
	rk.pubClock.Store(int64(eng.Now()))
	rk.pubPending.Store(int64(eng.Pending()))
	depth := 0
	for _, ob := range rk.outboxes {
		depth += len(ob)
	}
	rk.pubOutbox.Store(int64(depth))
	rk.pubWindows.Add(1)
}

// runWindow delivers the staged remote events the window covers and
// advances the rank's engine to the horizon, converting handler panics into
// rank errors so one broken component reports instead of killing the
// process.
func (rk *rank) runWindow(horizon sim.Time) {
	rk.err = nil
	defer func() {
		if r := recover(); r != nil {
			rk.err = rankPanicError(rk.id, rk.sim.Engine().Now(), r)
		}
	}()
	rk.deliverStaged(horizon)
	if horizon == sim.TimeInfinity {
		rk.handled = rk.sim.Engine().Run(horizon)
	} else {
		rk.handled = rk.sim.Engine().Run(horizon - 1)
	}
}

// deliverStaged schedules every staged remote event below horizon into the
// rank's engine, in canonical (time, sent, srcRank, seq) order. Deferring
// delivery to the covering window — rather than scheduling at whichever
// barrier carried the event across — makes the engine insertion order, and
// therefore same-timestamp tie-breaking, independent of window boundaries.
// That is what keeps global and pairwise sync bit-identical. A speculative
// leg also records each delivery so a rollback can re-stage it.
func (rk *rank) deliverStaged(horizon sim.Time) {
	eng := rk.sim.Engine()
	for len(rk.staging) > 0 && rk.staging[0].time < horizon {
		ev := rk.staging.pop()
		if sp := rk.spec; sp != nil {
			sp.log = append(sp.log, ev)
			if len(sp.log) > rk.specPeakLog {
				rk.specPeakLog = len(sp.log)
			}
		}
		h := ev.dst.Handler()
		if h == nil {
			panic(fmt.Sprintf("par: port %q has no handler", ev.dst.Name()))
		}
		eng.ScheduleAt(ev.time, sim.PrioLink, h, ev.payload)
	}
}

// nextWork returns the earliest thing this rank could possibly do: its
// engine's next pending event or its earliest staged remote event.
func (rk *rank) nextWork() sim.Time {
	next := rk.sim.Engine().NextEventTime()
	if t := rk.staging.minTime(); t < next {
		next = t
	}
	return next
}

// rankPanicError formats a recovered handler panic. Handlers wrapped with
// sim.Guard arrive as *sim.PanicError and the message names the component;
// bare panics fall back to the panic value plus the recovery-site stack.
func rankPanicError(id int, now sim.Time, r any) error {
	if pe, ok := r.(*sim.PanicError); ok {
		return fmt.Errorf("par: rank %d at %v: %w\n%s", id, now, pe, pe.Stack)
	}
	return fmt.Errorf("par: rank %d at %v: panic: %v\n%s", id, now, r, debug.Stack())
}

// Runner coordinates the ranks.
type Runner struct {
	ranks      []*rank
	mode       SyncMode
	lookahead  sim.Time
	crossLinks int
	// minLat is the direct cross-rank adjacency (min latency per pair);
	// la is the derived all-pairs lookahead matrix, rebuilt when laDirty.
	minLat       [][]sim.Time
	la           [][]sim.Time
	laDirty      bool
	now          sim.Time
	watchdog     time.Duration
	interrupted  atomic.Bool
	windows      uint64
	fastForwards uint64
	// Speculative-mode knobs (see SetSpecLeap / SetSpecDepth).
	specLeap  int
	specDepth int

	// snapPorts indexes cross-rank ports by name for coordinated snapshots
	// (staged remote events serialize their destination by port name);
	// snapDups flags names that appeared more than once. Nil unless
	// EnableSnapshots was called. See snapshot.go.
	snapPorts map[string]*sim.Port
	snapDups  map[string]bool
}

// NewRunner creates nranks empty partitions.
func NewRunner(nranks int) (*Runner, error) {
	if nranks <= 0 {
		return nil, fmt.Errorf("par: need at least one rank")
	}
	r := &Runner{
		lookahead: sim.TimeInfinity,
		watchdog:  DefaultWatchdog,
		specLeap:  DefaultSpecLeap,
		specDepth: DefaultSpecDepth,
	}
	r.minLat = make([][]sim.Time, nranks)
	for i := range r.minLat {
		r.minLat[i] = make([]sim.Time, nranks)
		for j := range r.minLat[i] {
			r.minLat[i][j] = sim.TimeInfinity
		}
		r.minLat[i][i] = 0
	}
	for i := 0; i < nranks; i++ {
		rk := &rank{id: i, sim: sim.New(), outboxes: make([][]remoteEvent, nranks)}
		r.ranks = append(r.ranks, rk)
	}
	return r, nil
}

// NumRanks returns the partition count.
func (r *Runner) NumRanks() int { return len(r.ranks) }

// Rank returns partition i's simulation container; build that rank's
// components against it.
func (r *Runner) Rank(i int) *sim.Simulation { return r.ranks[i].sim }

// Now returns the global base time: every event below it has been
// processed on every rank.
func (r *Runner) Now() sim.Time { return r.now }

// SetWatchdog sets the zero-progress limit: if no rank completes a
// synchronization window within d, Run interrupts the rank engines and
// returns an ErrStalled diagnostic instead of hanging. d = 0 disables the
// watchdog. The default is DefaultWatchdog.
func (r *Runner) SetWatchdog(d time.Duration) {
	if d < 0 {
		d = 0
	}
	r.watchdog = d
}

// Interrupt asks a running simulation to stop at the next opportunity:
// every rank engine is interrupted and Run returns sim.ErrInterrupted after
// the current window's barrier. Safe to call from any goroutine (signal
// handlers in the CLIs use it).
func (r *Runner) Interrupt() {
	r.interrupted.Store(true)
	for _, rk := range r.ranks {
		rk.sim.Engine().Interrupt()
	}
}

// Lookahead returns the global synchronization floor (min cross-rank
// latency; 0 with no cross links). Pairwise mode may run individual ranks
// through far wider windows — see PairLookahead.
func (r *Runner) Lookahead() sim.Time {
	if r.crossLinks == 0 {
		return 0
	}
	return r.lookahead
}

// Connect creates a link of the given latency between rankA and rankB,
// returning the port on each side. Same-rank connections are ordinary
// local links; cross-rank connections must have nonzero latency, which
// feeds the runner's lookahead matrix.
func (r *Runner) Connect(name string, latency sim.Time, rankA, rankB int) (*sim.Port, *sim.Port, error) {
	if rankA < 0 || rankA >= len(r.ranks) || rankB < 0 || rankB >= len(r.ranks) {
		return nil, nil, fmt.Errorf("par: link %q connects invalid ranks %d,%d", name, rankA, rankB)
	}
	if rankA == rankB {
		a, b := r.ranks[rankA].sim.Connect(name, latency)
		return a, b, nil
	}
	if latency == 0 {
		return nil, nil, fmt.Errorf("par: cross-rank link %q needs nonzero latency (it is the lookahead)", name)
	}
	// The link object nominally lives on rankA's engine, but delivery is
	// fully intercepted, so the home engine is never used for sends.
	a, b := sim.Connect(r.ranks[rankA].sim.Engine(), name, latency)
	if r.snapPorts != nil {
		r.recordSnapPort(a)
		r.recordSnapPort(b)
	}
	r.crossLinks++
	if latency < r.lookahead {
		r.lookahead = latency
	}
	r.recordLink(rankA, rankB, latency)
	ra, rb := r.ranks[rankA], r.ranks[rankB]
	a.Link().SetDeliver(func(from *sim.Port, delay sim.Time, payload any) {
		src, dstRank, dstPort := ra, rb.id, b
		if from == b {
			src, dstRank, dstPort = rb, ra.id, a
		}
		src.sendSeq++
		now := src.sim.Engine().Now()
		if src.specOn && now < src.base {
			// Replay below the committed base regenerates sends the
			// committed timeline already released. The prefix replays
			// deterministically — same events, same sends, and the send
			// counter was restored from the rollback checkpoint — so
			// dropping here (after consuming the sequence number) discards
			// exactly the duplicates. Conservative legs never execute
			// below base, so the guard is speculative-only by construction.
			return
		}
		src.outboxes[dstRank] = append(src.outboxes[dstRank], remoteEvent{
			time:    now + delay,
			sent:    now,
			srcRank: src.id,
			seq:     src.sendSeq,
			dst:     dstPort,
			payload: payload,
		})
	})
	return a, b, nil
}

// horizonFor computes how far rank i may safely advance this round. In
// global mode it is the shared window base plus the single minimum
// cross-rank latency. In pairwise mode it is derived from the snapshot of
// every rank's next-event time nw[j] (engine queue or staged remote, taken
// while all workers are parked): any event that can still reach rank i
// starts from some currently scheduled event at some rank j and travels at
// least the shortest-path latency la[j][i], so nothing can arrive before
//
//	min over j != i of  nw[j] + la[j][i]
//
// Traffic rank i itself originates can come back no sooner than a round
// trip, nw[i] + 2*min_j la[i][j], which is the i == j term. Using
// next-event times instead of rank clocks is what makes the horizon
// topology-aware in practice: a tightly-coupled cluster with nothing
// scheduled stops pacing everyone else, and loosely-coupled ranks get
// windows sized by their slow inbound links rather than by the busiest
// pair's tight one. Both variants are clamped to [rank base, until].
func (r *Runner) horizonFor(i int, la [][]sim.Time, nw []sim.Time, until sim.Time) sim.Time {
	rk := r.ranks[i]
	var h sim.Time
	if r.mode == SyncGlobal {
		h = r.now + r.lookahead
		if h < r.now { // overflow: effectively unconstrained
			h = sim.TimeInfinity
		}
	} else {
		h = sim.TimeInfinity
		minIn := sim.TimeInfinity
		for j := range r.ranks {
			if j == i {
				continue
			}
			l := la[j][i]
			if l == sim.TimeInfinity {
				continue
			}
			if l < minIn {
				minIn = l
			}
			c := nw[j] + l
			if c < nw[j] { // overflow: that rank is unconstraining
				continue
			}
			if c < h {
				h = c
			}
		}
		// Round trip for traffic rank i itself originates (la is
		// symmetric, so min inbound == min outbound).
		if rt := 2 * minIn; minIn != sim.TimeInfinity && rt > minIn {
			if c := nw[i] + rt; c >= nw[i] && c < h {
				h = c
			}
		}
	}
	if h > until {
		h = until
	}
	if h < rk.base {
		h = rk.base
	}
	return h
}

// Run advances the whole model until the given time (or until globally
// idle), returning total events handled. Events scheduled exactly at
// `until` are not processed (windows are half-open), so event counts match
// across rank counts. With one rank Run degenerates to a sequential run
// with no synchronization overhead.
func (r *Runner) Run(until sim.Time) (uint64, error) {
	if len(r.ranks) == 1 && r.crossLinks == 0 {
		rk := r.ranks[0]
		rk.runWindow(until) // half-open: finite horizons run to until-1
		rk.publish()
		n := rk.handled
		rk.events += n
		if n == 0 {
			rk.idleWindows++
		}
		r.windows++
		if rk.err != nil {
			return n, rk.err
		}
		if rk.sim.Engine().Interrupted() || r.interrupted.Load() {
			r.now = rk.sim.Engine().Now()
			return n, fmt.Errorf("par: run interrupted at %v: %w", r.now, sim.ErrInterrupted)
		}
		r.now = until
		if until == sim.TimeInfinity {
			r.now = rk.sim.Engine().Now()
		}
		return n, nil
	}
	if r.crossLinks > 0 && (r.lookahead == 0 || r.lookahead == sim.TimeInfinity) {
		return 0, fmt.Errorf("par: no usable lookahead")
	}
	if r.mode.Speculative() && r.crossLinks > 0 {
		return r.runSpeculative(until)
	}
	c := &conservative{
		r:      r,
		la:     r.lookaheadMatrix(),
		until:  until,
		nw:     make([]sim.Time, len(r.ranks)),
		active: make([]*rank, 0, len(r.ranks)),
	}
	err := r.runWindows(c.step)
	return c.total, err
}

// conservative is the serial phase of a conservative Run (see runWindows).
type conservative struct {
	r      *Runner
	la     [][]sim.Time
	until  sim.Time
	nw     []sim.Time
	active []*rank
	total  uint64
}

// step settles the window that just ended, if any, and classifies the next.
func (c *conservative) step() ([]*rank, error) {
	r, until := c.r, c.until
	if len(c.active) > 0 {
		// A rank whose handlers panicked has reported via rk.err; stop
		// with every rank's failure rather than continuing a corrupted
		// simulation.
		if err := r.windowErr(c.active); err != nil {
			return nil, err
		}
		// Exchange phase: sharded — only ranks that ran produced mail,
		// and each nonempty outbox batch goes straight into its
		// destination's staging heap. Heap pop order is the canonical
		// (time, sent, srcRank, seq) order regardless of which barrier round a
		// batch arrived in, so the drain order here need not be sorted.
		for _, src := range c.active {
			for dst, ob := range src.outboxes {
				if len(ob) == 0 {
					continue
				}
				st := &r.ranks[dst].staging
				for _, ev := range ob {
					st.push(ev)
				}
				src.outboxes[dst] = ob[:0]
			}
		}
		// Advance: only dispatched ranks move here (skipped ranks already
		// advanced in the horizon phase), then settle the global base.
		for _, rk := range c.active {
			c.total += rk.handled
			rk.events += rk.handled
			if rk.handled == 0 {
				rk.idleWindows++
			}
			if rk.horizon > rk.base {
				rk.base = rk.horizon
			}
		}
		r.windows++
		min := sim.TimeInfinity
		for _, rk := range r.ranks {
			if rk.base < min {
				min = rk.base
			}
		}
		if min > r.now {
			r.now = min
		}
		if r.now >= until {
			return nil, nil
		}
	}
	for {
		// Horizon phase: snapshot every rank's next-event time (no
		// window is in flight, so this is a consistent cut), compute
		// every rank's conservative horizon from the snapshot, then
		// classify. A rank is dispatched only if it has work below its
		// horizon (local pending or staged remote); otherwise its base
		// advances for free (skip-idle).
		for i, rk := range r.ranks {
			c.nw[i] = rk.nextWork()
		}
		for i := range r.ranks {
			r.ranks[i].horizon = r.horizonFor(i, c.la, c.nw, until)
		}
		c.active = c.active[:0]
		for i, rk := range r.ranks {
			if rk.base >= until {
				continue
			}
			if c.nw[i] < rk.horizon {
				rk.target = rk.horizon
				c.active = append(c.active, rk)
				continue
			}
			if rk.horizon > rk.base {
				rk.base = rk.horizon
				rk.idleWindows++
				rk.skipped++
			}
		}
		if len(c.active) > 0 {
			return c.active, nil
		}
		// Idle fast-forward: no rank has work below its horizon. A
		// min-reduction over next-event times jumps every base straight
		// to the earliest pending event — or finishes — instead of
		// crawling there window by window.
		next := sim.TimeInfinity
		for _, rk := range r.ranks {
			if t := rk.nextWork(); t < next {
				next = t
			}
		}
		if next >= until {
			for _, rk := range r.ranks {
				if rk.base < until {
					rk.base = until
				}
			}
			if until == sim.TimeInfinity {
				// Globally idle: rest the clock at the furthest rank.
				for _, rk := range r.ranks {
					if t := rk.sim.Engine().Now(); t > r.now {
						r.now = t
					}
				}
			} else if r.now < until {
				r.now = until
			}
			return nil, nil
		}
		for _, rk := range r.ranks {
			if rk.base < next {
				rk.base = next
			}
		}
		r.fastForwards++
		if next > r.now {
			r.now = next
		}
	}
}

// windowErr reports why the window loop must stop after a window: every
// handler panic the window's ranks raised, or an interrupt.
func (r *Runner) windowErr(active []*rank) error {
	var rankErrs []error
	for _, rk := range active {
		if rk.err != nil {
			rankErrs = append(rankErrs, rk.err)
		}
	}
	if len(rankErrs) > 0 {
		return errors.Join(rankErrs...)
	}
	if r.interrupted.Load() {
		return fmt.Errorf("par: run interrupted at window %v: %w", r.now, sim.ErrInterrupted)
	}
	return nil
}

// stallError builds the zero-progress diagnostic: the window round that
// hung and each rank's last-published clock, pending-event count, outbox
// depth, and this round's base/horizon. arrived marks the dispatched ranks
// that finished the window; nil means all of them did.
func (r *Runner) stallError(active []*rank, arrived []bool) error {
	dispatched := make([]bool, len(r.ranks))
	for _, rk := range active {
		dispatched[rk.id] = true
	}
	hi := r.now
	for _, rk := range r.ranks {
		if rk.horizon != sim.TimeInfinity && rk.horizon > hi {
			hi = rk.horizon
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "no rank completed the window [%v, %v) within %v (%s sync, lookahead %v)",
		r.now, hi, r.watchdog, r.mode, r.Lookahead())
	for _, rk := range r.ranks {
		fmt.Fprintf(&sb, "\n  rank %d: clock=%v pending=%d outbox=%d windows=%d base=%v horizon=%v",
			rk.id, sim.Time(rk.pubClock.Load()), rk.pubPending.Load(),
			rk.pubOutbox.Load(), rk.pubWindows.Load(), rk.base, rk.horizon)
		if !dispatched[rk.id] {
			sb.WriteString(" (skipped: no work below horizon)")
		} else if arrived != nil && !arrived[rk.id] {
			sb.WriteString(" (did not respond to interrupt; state is from its last barrier)")
		}
	}
	return fmt.Errorf("%w: %s", ErrStalled, sb.String())
}

// RankMetrics is one rank's cumulative view of a parallel run.
type RankMetrics struct {
	// Rank is the partition index.
	Rank int `json:"rank"`
	// Events is the number of events this rank dispatched across all
	// windows of all Run calls.
	Events uint64 `json:"events"`
	// Windows counts the synchronization windows the rank actually ran
	// (skipped windows are not dispatched and do not count here).
	Windows uint64 `json:"windows"`
	// IdleWindows counts window rounds in which the rank dispatched
	// nothing — lookahead-limited stalls where the rank had no work while
	// other ranks had some, whether it was dispatched or skipped.
	IdleWindows uint64 `json:"idle_windows"`
	// SkippedWindows is the subset of IdleWindows where the runner
	// never dispatched the rank at all: with nothing below its horizon its
	// base time advanced for free instead of paying a barrier round trip.
	SkippedWindows uint64 `json:"skipped_windows"`
	// Lookahead is the rank's inbound synchronization slack: the minimum
	// pairwise lookahead over ranks that can reach it. Zero when no rank
	// can (then nothing ever constrains its horizon).
	Lookahead sim.Time `json:"lookahead_ps"`
	// Clock is the rank engine's clock at its last barrier arrival.
	Clock sim.Time `json:"clock_ps"`
	// Rollbacks counts speculative-mode rollbacks: straggler arrivals that
	// forced this rank back to its last committed checkpoint.
	Rollbacks uint64 `json:"rollbacks"`
	// Replayed counts events this rank re-executed during rollback
	// recovery (already-committed prefix replays plus discarded
	// speculation). Zero in conservative modes.
	Replayed uint64 `json:"replayed_events"`
	// Fallbacks counts adaptive-mode demotions: episodes where the rank's
	// rollback rate crossed the governor threshold and it was pinned to
	// its pairwise-conservative horizon for a cooldown.
	Fallbacks uint64 `json:"fallbacks"`
	// Promotions counts adaptive-mode re-promotions after a cooldown.
	Promotions uint64 `json:"promotions"`
}

// RunnerMetrics summarizes a parallel run for the observability layer.
type RunnerMetrics struct {
	// Mode is the synchronization mode the runner used ("global" or
	// "pairwise").
	Mode string `json:"mode"`
	// Windows is the number of synchronization rounds the runner ran
	// (rounds resolved purely by fast-forward are counted separately).
	Windows uint64 `json:"windows"`
	// FastForwards counts idle fast-forwards: rounds at which no rank had
	// work below its horizon and the runner jumped every base
	// straight to the globally earliest pending event.
	FastForwards uint64 `json:"fast_forwards"`
	// Lookahead is the global conservative floor (min cross-rank link
	// latency; 0 with no cross links).
	Lookahead sim.Time `json:"lookahead_ps"`
	// Imbalance is max/mean of per-rank event counts: 1.0 is a perfectly
	// balanced partition, larger means some rank dominates the critical
	// path. Zero when no events ran.
	Imbalance float64 `json:"imbalance"`
	// Rollbacks / Replayed / Fallbacks / Promotions are the speculative-
	// mode totals over all ranks (see RankMetrics for the per-rank
	// meaning). All zero in conservative modes.
	Rollbacks  uint64 `json:"rollbacks"`
	Replayed   uint64 `json:"replayed_events"`
	Fallbacks  uint64 `json:"fallbacks"`
	Promotions uint64 `json:"promotions"`
	// Ranks holds the per-rank breakdown, indexed by rank.
	Ranks []RankMetrics `json:"ranks"`
}

// Metrics returns the run's synchronization and balance counters. Call it
// after Run returns; it reads state the serial phase owns and must not race
// a running simulation.
func (r *Runner) Metrics() RunnerMetrics {
	m := RunnerMetrics{
		Mode:         r.mode.String(),
		Windows:      r.windows,
		FastForwards: r.fastForwards,
		Lookahead:    r.Lookahead(),
		Ranks:        make([]RankMetrics, len(r.ranks)),
	}
	la := r.lookaheadMatrix()
	var total, max uint64
	for i, rk := range r.ranks {
		inbound := r.rankLookahead(la, i)
		if inbound == sim.TimeInfinity {
			inbound = 0
		}
		m.Ranks[i] = RankMetrics{
			Rank:           rk.id,
			Events:         rk.events,
			Windows:        rk.pubWindows.Load(),
			IdleWindows:    rk.idleWindows,
			SkippedWindows: rk.skipped,
			Lookahead:      inbound,
			Clock:          sim.Time(rk.pubClock.Load()),
			Rollbacks:      rk.rollbacks,
			Replayed:       rk.replayed,
			Fallbacks:      rk.fallbacks,
			Promotions:     rk.promotions,
		}
		m.Rollbacks += rk.rollbacks
		m.Replayed += rk.replayed
		m.Fallbacks += rk.fallbacks
		m.Promotions += rk.promotions
		total += rk.events
		if rk.events > max {
			max = rk.events
		}
	}
	if total > 0 {
		mean := float64(total) / float64(len(r.ranks))
		m.Imbalance = float64(max) / mean
	}
	return m
}

// RunAll advances until the model is globally idle.
func (r *Runner) RunAll() (uint64, error) { return r.Run(sim.TimeInfinity) }

// Finish runs every rank's component Finish hooks.
func (r *Runner) Finish() {
	for _, rk := range r.ranks {
		rk.sim.Finish()
	}
}
