package sim

import (
	"fmt"
	"math/rand"
)

// The pointer-pool engine this package shipped before the by-value queue:
// every event a pooled *ptrEvent, a group a []*ptrEvent, the cancel mark a
// field of the pooled struct. Kept verbatim (renamed only) as the reference
// the engine oracle drives beside the shipped Engine.

type ptrEvent struct {
	at  Time
	seq uint64 // tie-breaker preserving scheduling order at equal times
	fn  func()
	// fnA/arg is the closure-free form used by Post: high-volume callers
	// (message delivery) pass a long-lived function and a pooled argument
	// record instead of allocating a fresh closure per event.
	fnA  func(any)
	arg  any
	gone bool // set true when the event was cancelled
}

// ptrGroup is the FIFO of events firing at one exact instant. Sequence
// numbers are issued monotonically, so direct scheduling appends in order;
// only far-heap migration (old seq entering a young slot) needs the
// insertion path.
type ptrGroup struct {
	at     Time
	next   int // firing cursor
	events []*ptrEvent
}

// ptrSlot holds one slot's groups, reused across ring laps.
type ptrSlot struct {
	groups []ptrGroup
}

// addGroup returns the slot's group for instant at, reviving a truncated
// slot (and its events capacity) when available.
func (s *ptrSlot) group(at Time) *ptrGroup {
	for i := range s.groups {
		if s.groups[i].at == at {
			return &s.groups[i]
		}
	}
	if len(s.groups) < cap(s.groups) {
		s.groups = s.groups[:len(s.groups)+1]
		g := &s.groups[len(s.groups)-1]
		g.at = at
		g.next = 0
		g.events = g.events[:0]
		return g
	}
	s.groups = append(s.groups, ptrGroup{at: at})
	return &s.groups[len(s.groups)-1]
}

// reset truncates the slot for its next ring lap, keeping capacities.
func (s *ptrSlot) reset() {
	for i := range s.groups {
		g := &s.groups[i]
		for j := range g.events {
			g.events[j] = nil
		}
		g.events = g.events[:0]
		g.next = 0
	}
	s.groups = s.groups[:0]
}

// ptrFar is the min-heap of events beyond the ring horizon, ordered by
// (at, seq).
type ptrFar []*ptrEvent

func (q ptrFar) less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q *ptrFar) push(e *ptrEvent) {
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

func (q *ptrFar) pop() *ptrEvent {
	h := *q
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
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

// ptrEngine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use: all handlers run on the caller's goroutine inside Run.
type ptrEngine struct {
	now     Time
	nowSlot int64 // slot index of now (ring coverage starts here)
	ring    [ringSlots]ptrSlot
	inRing  int // events currently queued in the ring
	far     ptrFar
	seq     uint64
	rng     *rand.Rand
	fired   uint64
	halted  bool
	pool    []*ptrEvent // recycled event structs
}

// newPtrEngine returns an engine whose RNG is seeded with seed, making runs
// reproducible.
func newPtrEngine(seed int64) *ptrEngine {
	return &ptrEngine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *ptrEngine) Now() Time { return e.now }

// Rand exposes the engine's seeded RNG so that all stochastic behaviour
// (latency jitter, fault injection, workload generation) shares one
// reproducible stream.
func (e *ptrEngine) Rand() *rand.Rand { return e.rng }

func (e *ptrEngine) getEvent() *ptrEvent {
	if n := len(e.pool); n > 0 {
		ev := e.pool[n-1]
		e.pool[n-1] = nil
		e.pool = e.pool[:n-1]
		return ev
	}
	return &ptrEvent{}
}

// schedule files ev into the ring or the far heap.
func (e *ptrEngine) schedule(ev *ptrEvent) {
	slot := int64(ev.at) >> slotShift
	if slot-e.nowSlot >= ringSlots {
		e.far.push(ev)
		return
	}
	g := e.ring[slot&ringMask].group(ev.at)
	g.events = append(g.events, ev)
	e.inRing++
}

// migrate moves far events whose slot entered the ring horizon. Their
// sequence numbers predate anything scheduled into the slot since, so they
// insert by seq rather than appending.
func (e *ptrEngine) migrate() {
	horizon := Time((e.nowSlot + ringSlots) << slotShift)
	for len(e.far) > 0 && e.far[0].at < horizon {
		ev := e.far.pop()
		g := e.ring[(int64(ev.at)>>slotShift)&ringMask].group(ev.at)
		i := len(g.events)
		for i > g.next && g.events[i-1].seq > ev.seq {
			i--
		}
		g.events = append(g.events, nil)
		copy(g.events[i+1:], g.events[i:])
		g.events[i] = ev
		e.inRing++
	}
}

// At schedules fn at absolute virtual time at. Scheduling in the past (or
// present) fires the event at the current time but after already-queued
// events for that time, preserving causal order.
func (e *ptrEngine) At(at Time, fn func()) Cancel {
	if at < e.now {
		at = e.now
	}
	ev := e.getEvent()
	*ev = ptrEvent{at: at, seq: e.seq, fn: fn}
	e.seq++
	e.schedule(ev)
	// The cancel closure pins the event's identity via seq: once the event
	// fires and the struct is recycled for a later schedule, a stale cancel
	// becomes a no-op instead of killing the new occupant.
	seq := ev.seq
	return func() {
		if ev.seq == seq {
			ev.gone = true
		}
	}
}

// After schedules fn after delay d.
func (e *ptrEngine) After(d Time, fn func()) Cancel {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Post schedules fn(arg) after delay d with no cancellation handle — the
// allocation-free fast path for fire-and-forget events. A warm engine
// reuses a pooled event struct and allocates nothing: callers that would
// otherwise capture state in a per-event closure (the transport's million
// message deliveries per stress run) pass a long-lived fn and a pooled arg
// record instead.
func (e *ptrEngine) Post(d Time, fn func(any), arg any) {
	at := e.now + d
	if d < 0 || at < e.now {
		at = e.now
	}
	ev := e.getEvent()
	*ev = ptrEvent{at: at, seq: e.seq, fnA: fn, arg: arg}
	e.seq++
	e.schedule(ev)
}

// ptrEveryRec carries one periodic timer's state through the closure-free
// Post path: one record and one cancel closure per Every call, instead of
// a closure per tick.
type ptrEveryRec struct {
	e        *ptrEngine
	interval Time
	fn       func()
	stopped  bool
}

func ptrEveryTick(a any) {
	r := a.(*ptrEveryRec)
	if r.stopped {
		return
	}
	r.fn()
	if !r.stopped && !r.e.halted {
		r.e.Post(r.interval, ptrEveryTick, r)
	}
}

// PostFunc schedules fn after delay d with no cancellation handle: After
// without the per-call Cancel closure, for high-volume fire-and-forget
// timers (per-grant hold expiries, flush arming).
func (e *ptrEngine) PostFunc(d Time, fn func()) { e.Post(d, callFunc, fn) }

// Every schedules fn every interval, first firing after one interval. The
// returned Cancel stops future firings.
func (e *ptrEngine) Every(interval Time, fn func()) Cancel {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive interval %d", interval))
	}
	r := &ptrEveryRec{e: e, interval: interval, fn: fn}
	e.Post(interval, ptrEveryTick, r)
	// The queued tick still fires once after a cancel (as a no-op), up to a
	// whole interval later; dropping the callback now keeps the record from
	// pinning whatever fn closes over until then.
	return func() { r.stopped, r.fn = true, nil }
}

// Run executes events with firing times <= until, then advances the clock
// to until (unless halted), so consecutive Run calls model the passage of
// wall time even while future events remain queued.
func (e *ptrEngine) Run(until Time) uint64 {
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
func (e *ptrEngine) advanceTo(s int64) {
	e.nowSlot = s
	e.migrate()
}

func (e *ptrEngine) run(until Time) uint64 {
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
			var g *ptrGroup
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
			g.events[g.next] = nil
			g.next++
			e.inRing--
			gone, at := ev.gone, ev.at
			fn, fnA, arg := ev.fn, ev.fnA, ev.arg
			ev.fn, ev.fnA, ev.arg = nil, nil, nil
			e.pool = append(e.pool, ev)
			if gone {
				continue
			}
			e.now = at
			e.fired++
			if fnA != nil {
				fnA(arg)
			} else {
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
		slot.reset()
		e.advanceTo(e.nowSlot + 1)
	}
	return e.fired - start
}

// Halt stops Run after the current event completes. Periodic timers stop
// rescheduling.
func (e *ptrEngine) Halt() { e.halted = true }

// Pending returns the number of queued (possibly cancelled) events.
func (e *ptrEngine) Pending() int { return e.inRing + len(e.far) }

// Fired returns the total number of events executed so far.
func (e *ptrEngine) Fired() uint64 { return e.fired }

// RunUntilIdle runs to queue exhaustion with no time bound. The clock stays
// at the last fired event's time.
func (e *ptrEngine) RunUntilIdle() uint64 {
	const horizon = Time(1) << 62
	return e.run(horizon)
}
