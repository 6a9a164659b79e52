package sim

import (
	"testing"
	"testing/quick"
)

func TestAtOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.RunUntilIdle()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.RunUntilIdle()
	for i, v := range order {
		if v != i {
			t.Fatalf("events at equal time not FIFO: %v", order)
		}
	}
}

func TestPastEventsFireNow(t *testing.T) {
	e := NewEngine(1)
	var at Time = -1
	e.At(100, func() {
		e.At(50, func() { at = e.Now() }) // scheduled "in the past"
	})
	e.RunUntilIdle()
	if at != 100 {
		t.Errorf("past event fired at %d, want 100", at)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	c := e.After(10, func() { fired = true })
	c()
	e.RunUntilIdle()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestEvery(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var cancel Cancel
	cancel = e.Every(10, func() {
		count++
		if count == 5 {
			cancel()
		}
	})
	e.Run(1000)
	if count != 5 {
		t.Errorf("ticks = %d, want 5", count)
	}
	if e.Now() != 1000 {
		t.Errorf("clock = %d, want horizon 1000", e.Now())
	}
}

// pendingEveryRecs digs the periodic-timer records out of the queue.
func pendingEveryRecs(e *Engine) []*everyRec {
	var out []*everyRec
	add := func(ev event) {
		if r, ok := ev.arg.(*everyRec); ok {
			out = append(out, r)
		}
	}
	for i := range e.ring {
		for _, g := range e.ring[i].groups {
			for _, ev := range g.events[g.next:] {
				add(ev)
			}
		}
	}
	for _, fe := range e.far {
		add(fe.event)
	}
	return out
}

// TestCancelledEveryDropsItsCallback: the tick queued before a cancel still
// fires (as a no-op, so event counts do not depend on cancellation), but
// until it does — up to a whole interval — the record must not keep the
// callback, and with it the timer's owner, reachable.
func TestCancelledEveryDropsItsCallback(t *testing.T) {
	e := NewEngine(1)
	called := 0
	near := e.Every(10*Millisecond, func() { called++ }) // ring
	far := e.Every(30*Second, func() { called++ })       // far heap
	near()
	far()
	recs := pendingEveryRecs(e)
	if len(recs) != 2 {
		t.Fatalf("found %d queued periodic records, want 2", len(recs))
	}
	for _, r := range recs {
		if r.fn != nil || !r.stopped {
			t.Errorf("cancelled %v timer: stopped=%v, callback kept=%v", r.interval, r.stopped, r.fn != nil)
		}
	}
	e.Run(Minute)
	if called != 0 {
		t.Errorf("cancelled timers ran their callbacks %d times", called)
	}
	if e.Fired() != 2 || e.Pending() != 0 {
		t.Errorf("fired=%d pending=%d, want each stopped tick fired once and not rescheduled", e.Fired(), e.Pending())
	}
}

func TestEveryPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on non-positive interval")
		}
	}()
	NewEngine(1).Every(0, func() {})
}

func TestRunHorizonStopsEarly(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.At(10, func() { fired++ })
	e.At(200, func() { fired++ })
	e.Run(100)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	e.Run(300)
	if fired != 2 {
		t.Errorf("fired after second run = %d, want 2", fired)
	}
}

func TestHalt(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.At(1, func() { fired++; e.Halt() })
	e.At(2, func() { fired++ })
	e.Run(100)
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (halted)", fired)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		e := NewEngine(42)
		var out []int64
		for i := 0; i < 100; i++ {
			d := Time(e.Rand().Intn(1000))
			e.After(d, func() { out = append(out, int64(e.Now())) })
		}
		e.RunUntilIdle()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("run lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if Second.Seconds() != 1.0 {
		t.Errorf("Second.Seconds = %v", Second.Seconds())
	}
	if (2 * Minute).Seconds() != 120 {
		t.Errorf("2min = %v s", (2 * Minute).Seconds())
	}
	if Millisecond.Duration().Microseconds() != 1000 {
		t.Errorf("ms duration = %v", Millisecond.Duration())
	}
}

func TestPropClockMonotone(t *testing.T) {
	// The observed clock during event execution never decreases.
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		last := Time(-1)
		ok := true
		for _, d := range delays {
			e.After(Time(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.RunUntilIdle()
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFiredCount(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 25; i++ {
		e.At(Time(i), func() {})
	}
	if n := e.RunUntilIdle(); n != 25 {
		t.Errorf("Run returned %d, want 25", n)
	}
	if e.Fired() != 25 {
		t.Errorf("Fired = %d, want 25", e.Fired())
	}
}
