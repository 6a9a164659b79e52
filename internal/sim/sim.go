// Package sim provides the deterministic discrete-event engine that stands
// in for the paper's 5000-node testbed. Every Fuxi component (master, agents,
// application masters, fault injectors) is an event handler driven by one
// virtual clock; the control-plane code under test is real, only time and the
// machines are simulated. A seeded RNG makes every experiment reproducible.
//
// The event queue is a calendar queue: a ring of fixed-width time slots,
// each holding FIFO groups per distinct firing instant, with a small binary
// heap for events beyond the ring's horizon. Scheduling an event is O(1)
// (slot index + group append — sequence numbers are monotone, so appends
// are already in order) and firing pays O(groups-in-slot) instead of the
// O(log pending) sift of a global heap — at paper scale the pending set is
// dominated by a hundred thousand container hold timers, which made every
// heap operation walk a 17-level sift path.
//
// Events are stored by value: a group is a []event of 32-byte records
// (sequence number, callback, argument), so Post writes the record straight
// into the group's array and firing reads it from there — no pooled event
// struct, no pointer to chase on either side. Only At/After, which hand out
// a Cancel, pay for identity: their event's argument is a small pooled
// cancelCell that the Cancel closure and the queue both point at. A group's
// array comes from, and once its slot has drained returns to, a free list in
// the engine keyed by power-of-two capacity, so storage follows the events
// around the ring instead of belonging to a slot: the 5,000 heartbeats that
// share an instant once a virtual second land in a different slot each time
// and still reuse one array. A warm engine allocates nothing to schedule or
// fire, whatever the group size.
//
// Periodic timers come in two forms with one firing schedule: Every, which
// takes a closure and returns a Cancel, for the handful of long-lived timers
// a component arms at start-up; and Ticker, a record its owner embeds, for
// timers armed once per short-lived object (an application master's full
// sync), which costs that object nothing.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"
)

// Time is virtual time in microseconds since simulation start. Microsecond
// resolution lets us express both the paper's micro-second scheduling claims
// and multi-hour sort runs in one clock.
type Time int64

// Common durations in virtual microseconds.
const (
	Microsecond Time = 1
	Millisecond Time = 1000
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// Duration converts virtual time to a time.Duration for display.
func (t Time) Duration() time.Duration { return time.Duration(t) * time.Microsecond }

// Seconds returns the time in (fractional) seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string { return t.Duration().String() }

// event is one queued callback, stored by value in its group (or, with its
// firing time, in the far heap).
type event struct {
	seq uint64 // tie-breaker preserving scheduling order at equal times
	// fn/arg is the closure-free form every event takes: high-volume callers
	// (message delivery) pass a long-lived function and a pooled argument
	// record instead of allocating a fresh closure per event. A nil fn marks
	// a cancellable event, whose arg is its *cancelCell.
	fn  func(any)
	arg any
}

// cancelCell is the identity of an event scheduled through At: the one thing
// a by-value event cannot give its Cancel closure. Cells are pooled, so seq
// records which event the cell currently stands for.
type cancelCell struct {
	seq uint64
	fn  func() // nil once cancelled (or fired)
}

// Calendar-queue geometry: 1024µs (~1ms) slots, 8192 slots — an 8.4s
// horizon that covers delivery latencies, scheduling rounds, heartbeats and
// the churn lane's 5 s container holds. Longer timers wait in the far heap
// and migrate as the ring advances: full syncs, decay sweeps, and the
// container holds of the failover lane (15 s) and of the benchmark's replay
// workload (up to 30 s). Those holds make the far heap a hot path: on the
// benchmark's failover workload at seed 5 (2-core Xeon, Go 1.24), migrate,
// with the farQueue.pop inside it, is 8.0 % of the CPU profile, and
// farQueue.push allocates 16.8 MB of the 260 MB a run allocates.
const (
	slotShift = 10
	ringSlots = 8192
	ringMask  = ringSlots - 1
)

// timeGroup is the FIFO of events firing at one exact instant. Sequence
// numbers are issued monotonically, so direct scheduling appends in order;
// only far-heap migration (old seq entering a young slot) needs the
// insertion path.
type timeGroup struct {
	at     Time
	next   int     // firing cursor; events before it are zeroed
	events []event // from the engine's free list, never grown by append
}

// ringSlot holds one slot's groups; the group table is reused across ring
// laps, the groups' event arrays are not (see Engine.free).
type ringSlot struct {
	groups []timeGroup
}

// group returns the slot's group for instant at, opening an empty one when
// the instant is new to the slot.
func (s *ringSlot) group(at Time) *timeGroup {
	for i := range s.groups {
		if s.groups[i].at == at {
			return &s.groups[i]
		}
	}
	s.groups = append(s.groups, timeGroup{at: at})
	return &s.groups[len(s.groups)-1]
}

// Group arrays come in power-of-two capacities from groupCap0 up; class k is
// capacity groupCap0<<k. Four 32-byte events are two cache lines, and most
// instants hold one or two events.
const (
	groupCap0    = 4
	groupClasses = 32
)

func groupClass(capacity int) int { return bits.Len(uint(capacity)) - bits.Len(uint(groupCap0)) }

// farEvent is an event beyond the ring horizon, which has no group to carry
// its firing time.
type farEvent struct {
	at Time
	event
}

// farQueue is the min-heap of events beyond the ring horizon, ordered by
// (at, seq).
type farQueue []farEvent

func (q farQueue) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *farQueue) push(e farEvent) {
	*q = append(*q, e)
	i := len(*q) - 1
	h := *q
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *farQueue) pop() farEvent {
	h := *q
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = farEvent{}
	*q = h[:n]
	i := 0
	for {
		least := i
		if l := 2*i + 1; l < n && h.less(l, least) {
			least = l
		}
		if r := 2*i + 2; r < n && h.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return e
}

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use: all handlers run on the caller's goroutine inside Run.
type Engine struct {
	now     Time
	nowSlot int64 // slot index of now (ring coverage starts here)
	ring    [ringSlots]ringSlot
	inRing  int // events currently queued in the ring
	far     farQueue
	seq     uint64
	rng     *rand.Rand
	fired   uint64
	halted  bool
	// free holds drained group arrays by size class, most recently released
	// last: a new or growing group takes the array a just-drained one gave
	// back, so the arrays in use are as many as the instants pending, not as
	// many as the slots ever visited.
	free  [groupClasses][][]event
	cells []*cancelCell // recycled cancel cells
	ticks []*tickRec    // recycled Ticker tick records
}

// NewEngine returns an engine whose RNG is seeded with seed, making runs
// reproducible.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's seeded RNG so that all stochastic behaviour
// (latency jitter, fault injection, workload generation) shares one
// reproducible stream.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Cancel undoes a scheduled event; calling it after the event fired is a
// no-op.
type Cancel func()

// push appends ev to g, moving a full group to an array of the next size
// class first.
func (e *Engine) push(g *timeGroup, ev event) {
	if len(g.events) == cap(g.events) {
		old := g.events
		k := 0
		if cap(old) > 0 {
			k = groupClass(cap(old)) + 1
		}
		if n := len(e.free[k]); n > 0 {
			g.events = e.free[k][n-1]
			e.free[k] = e.free[k][:n-1]
		} else {
			g.events = make([]event, 0, groupCap0<<k)
		}
		g.events = append(g.events, old...)
		clear(old) // the copy owns the callbacks and arguments now
		e.release(old)
	}
	g.events = append(g.events, ev)
}

// release returns a group array whose elements are all zero to the free
// list.
func (e *Engine) release(buf []event) {
	if cap(buf) > 0 {
		k := groupClass(cap(buf))
		e.free[k] = append(e.free[k], buf[:0])
	}
}

// reset empties a drained slot for its next ring lap: the group table keeps
// its capacity, the groups' arrays (zeroed as they fired) go back to the
// free list.
func (e *Engine) reset(s *ringSlot) {
	for i := range s.groups {
		e.release(s.groups[i].events)
		s.groups[i].events = nil
	}
	s.groups = s.groups[:0]
}

// schedule files ev, due at instant at, into the ring or the far heap.
func (e *Engine) schedule(at Time, ev event) {
	slot := int64(at) >> slotShift
	if slot-e.nowSlot >= ringSlots {
		e.far.push(farEvent{at: at, event: ev})
		return
	}
	e.push(e.ring[slot&ringMask].group(at), ev)
	e.inRing++
}

// migrate moves far events whose slot entered the ring horizon. Their
// sequence numbers predate anything scheduled into the slot since, so they
// insert by seq rather than appending.
func (e *Engine) migrate() {
	horizon := Time((e.nowSlot + ringSlots) << slotShift)
	for len(e.far) > 0 && e.far[0].at < horizon {
		fe := e.far.pop()
		g := e.ring[(int64(fe.at)>>slotShift)&ringMask].group(fe.at)
		i := len(g.events)
		e.push(g, fe.event)
		for ; i > g.next && g.events[i-1].seq > fe.seq; i-- {
			g.events[i] = g.events[i-1]
		}
		g.events[i] = fe.event
		e.inRing++
	}
}

// At schedules fn at absolute virtual time at. Scheduling in the past (or
// present) fires the event at the current time but after already-queued
// events for that time, preserving causal order.
func (e *Engine) At(at Time, fn func()) Cancel {
	if at < e.now {
		at = e.now
	}
	var c *cancelCell
	if n := len(e.cells); n > 0 {
		c = e.cells[n-1]
		e.cells = e.cells[:n-1]
	} else {
		c = new(cancelCell)
	}
	seq := e.seq
	e.seq++
	c.seq, c.fn = seq, fn
	e.schedule(at, event{seq: seq, arg: c})
	// The cancel closure pins the event's identity via seq: once the event
	// fires and the cell is recycled for a later At, a stale cancel becomes a
	// no-op instead of killing the new occupant.
	return func() {
		if c.seq == seq {
			c.fn = nil
		}
	}
}

// After schedules fn after delay d.
func (e *Engine) After(d Time, fn func()) Cancel {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Post schedules fn(arg) after delay d with no cancellation handle — the
// allocation-free fast path for fire-and-forget events. A warm engine
// writes the event into a recycled group array and allocates nothing:
// callers that would otherwise capture state in a per-event closure (the
// transport's million message deliveries per stress run) pass a long-lived
// fn and a pooled arg record instead.
func (e *Engine) Post(d Time, fn func(any), arg any) {
	at := e.now + d
	if d < 0 || at < e.now {
		at = e.now
	}
	e.schedule(at, event{seq: e.seq, fn: fn, arg: arg})
	e.seq++
}

// callFunc adapts a plain func() to the Post signature, so periodic timers
// reschedule without allocating a cancel closure per tick.
func callFunc(a any) { a.(func())() }

// everyRec carries one periodic timer's state through the closure-free
// Post path: one record and one cancel closure per Every call, instead of
// a closure per tick.
type everyRec struct {
	e        *Engine
	interval Time
	fn       func()
	stopped  bool
}

func everyTick(a any) {
	r := a.(*everyRec)
	if r.stopped {
		return
	}
	r.fn()
	if !r.stopped && !r.e.halted {
		r.e.Post(r.interval, everyTick, r)
	}
}

// PostFunc schedules fn after delay d with no cancellation handle: After
// without the per-call Cancel closure, for high-volume fire-and-forget
// timers (per-grant hold expiries, flush arming).
func (e *Engine) PostFunc(d Time, fn func()) { e.Post(d, callFunc, fn) }

// Every schedules fn every interval, first firing after one interval. The
// returned Cancel stops future firings.
func (e *Engine) Every(interval Time, fn func()) Cancel {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive interval %d", interval))
	}
	r := &everyRec{e: e, interval: interval, fn: fn}
	e.Post(interval, everyTick, r)
	// The queued tick still fires once after a cancel (as a no-op), up to a
	// whole interval later; dropping the callback now keeps the record from
	// pinning whatever fn closes over until then.
	return func() { r.stopped, r.fn = true, nil }
}

// Ticker is Every for an owner that embeds its timer: the record sits inside
// the owner (an application master has one), the callback is a long-lived
// func(any) and its argument, and every tick rides the closure-free Post
// path, so on a warm engine a periodic timer costs its owner no allocation
// where Every costs three (record, cancel closure, and usually a method
// value). The ticks fall exactly where Every's would: first one interval
// after Start, re-armed after the callback returns, and a tick already queued
// when Stop is called still fires — as a no-op, counted by Fired. The zero
// value is a stopped ticker; a Ticker must not be copied once started.
type Ticker struct {
	e        *Engine
	interval Time
	fn       func(any)
	arg      any
	cur      *tickRec // the live tick's record, nil while stopped
}

// tickRec is what a queued tick points at. It comes from the engine's free
// list, not from the Ticker, so the tick a Stop leaves in the queue — for up
// to a whole interval — pins one word and not the ticker's owner (the reason
// Every's cancel drops its callback).
type tickRec struct {
	e *Engine
	t *Ticker // nil once the run this tick belongs to was stopped
}

// Start arms the ticker to call fn(arg) every interval, first after one
// interval, stopping any earlier run.
func (t *Ticker) Start(e *Engine, interval Time, fn func(any), arg any) {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive interval %d", interval))
	}
	t.Stop()
	t.e, t.interval, t.fn, t.arg = e, interval, fn, arg
	var r *tickRec
	if n := len(e.ticks); n > 0 {
		r = e.ticks[n-1]
		e.ticks = e.ticks[:n-1]
	} else {
		r = new(tickRec)
	}
	r.e, r.t, t.cur = e, t, r
	e.Post(interval, tickerTick, r)
}

// Stop ends the run; Start may begin another.
func (t *Ticker) Stop() {
	if t.cur != nil {
		t.cur.t, t.cur = nil, nil
	}
}

func tickerTick(a any) {
	r := a.(*tickRec)
	if t := r.t; t != nil {
		t.fn(t.arg)
		if r.t != nil { // still this run's tick: the callback neither stopped nor restarted it
			if !r.e.halted {
				r.e.Post(t.interval, tickerTick, r)
				return
			}
			t.cur, r.t = nil, nil // halted: the run ends here, as Every's does
		}
	}
	r.e.ticks = append(r.e.ticks, r)
}

// Run executes events with firing times <= until, then advances the clock
// to until (unless halted), so consecutive Run calls model the passage of
// wall time even while future events remain queued.
func (e *Engine) Run(until Time) uint64 {
	n := e.run(until)
	if e.now < until && !e.halted {
		e.now = until
		if s := int64(until) >> slotShift; s > e.nowSlot {
			e.advanceTo(s)
		}
	}
	return n
}

// advanceTo moves the ring base forward to slot s, migrating far events as
// the horizon extends. Skipped slots are empty by construction (run drains
// a slot before advancing past it).
func (e *Engine) advanceTo(s int64) {
	e.nowSlot = s
	e.migrate()
}

func (e *Engine) run(until Time) uint64 {
	start := e.fired
	e.halted = false
	untilSlot := int64(until) >> slotShift
	for !e.halted {
		if e.inRing == 0 {
			// Nothing inside the horizon: jump straight to the next far
			// event (or finish).
			if len(e.far) == 0 || e.far[0].at > until {
				break
			}
			e.advanceTo(int64(e.far[0].at) >> slotShift)
			continue
		}
		slot := &e.ring[e.nowSlot&ringMask]
		// Fire the slot's groups in (at, seq) order: repeatedly pick the
		// earliest instant among unfinished groups. Groups are few (distinct
		// instants inside ~1ms) and new same-slot arrivals join the scan.
		for {
			var g *timeGroup
			for i := range slot.groups {
				c := &slot.groups[i]
				if c.next < len(c.events) && (g == nil || c.at < g.at) {
					g = c
				}
			}
			if g == nil || g.at > until {
				break
			}
			ev := g.events[g.next]
			g.events[g.next] = event{}
			g.next++
			e.inRing--
			at := g.at // g may move when the callback schedules into this slot
			if ev.fn != nil {
				e.now = at
				e.fired++
				ev.fn(ev.arg)
			} else {
				c := ev.arg.(*cancelCell)
				fn := c.fn
				c.fn = nil
				e.cells = append(e.cells, c)
				if fn == nil {
					continue // cancelled
				}
				e.now = at
				e.fired++
				fn()
			}
			if e.halted {
				return e.fired - start
			}
		}
		// Slot drained up to until: advance, or stop at the horizon.
		if e.nowSlot >= untilSlot {
			break
		}
		e.reset(slot)
		e.advanceTo(e.nowSlot + 1)
	}
	return e.fired - start
}

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// RunUntilIdle runs to queue exhaustion with no time bound. The clock stays
// at the last fired event's time.
func (e *Engine) RunUntilIdle() uint64 {
	const horizon = Time(1) << 62
	return e.run(horizon)
}
