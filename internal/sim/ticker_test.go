package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// tickerCase drives one periodic timer through a scenario twice — as an
// Every and as a caller-owned Ticker — beside a stream of bystander events
// that share its instants, and wants the two logs ((time, what) in firing
// order, then Fired and Pending) identical.
type tickerCase struct {
	name string
	// play receives the engine and the timer's start/stop and schedules the
	// scenario; tick is called from the timer's callback with the tick count.
	play func(e *Engine, start func(Time), stop func())
	tick func(n int, e *Engine, start func(Time), stop func())
}

func (c tickerCase) run(useTicker bool) []string {
	e := NewEngine(1)
	var log []string
	var start func(Time)
	var stop func()
	n := 0
	body := func() {
		n++
		log = append(log, fmt.Sprintf("tick%d@%d", n, e.Now()))
		if c.tick != nil {
			c.tick(n, e, start, stop)
		}
	}
	if useTicker {
		var t Ticker
		start = func(d Time) { t.Start(e, d, callFunc, body) }
		stop = t.Stop
	} else {
		var cancel Cancel
		stop = func() {
			if cancel != nil {
				cancel()
				cancel = nil
			}
		}
		start = func(d Time) { stop(); cancel = e.Every(d, body) }
	}
	// Bystanders at every instant a tick can land on, posted before and (from
	// inside themselves) after the timer's own events.
	for at := Time(0); at <= 100; at += 5 {
		at := at
		e.PostFunc(at, func() {
			log = append(log, fmt.Sprintf("by@%d", e.Now()))
			e.PostFunc(5, func() { log = append(log, fmt.Sprintf("late@%d", e.Now())) })
		})
	}
	c.play(e, start, stop)
	e.Run(200)
	stop()
	e.RunUntilIdle()
	return append(log, fmt.Sprintf("fired=%d pending=%d now=%d", e.Fired(), e.Pending(), e.Now()))
}

func TestTickerFiresWhereEveryWould(t *testing.T) {
	cases := []tickerCase{
		{name: "plain", play: func(e *Engine, start func(Time), stop func()) { start(10) }},
		{name: "stop then restart at one instant", play: func(e *Engine, start func(Time), stop func()) {
			start(10)
			e.PostFunc(25, func() { stop(); start(10) })
		}},
		{name: "restart faster under the orphaned tick", play: func(e *Engine, start func(Time), stop func()) {
			start(20)
			e.PostFunc(25, func() { stop(); start(5) }) // new ticks at 30, 35 pass the orphan at 40
		}},
		{name: "restart twice inside one interval", play: func(e *Engine, start func(Time), stop func()) {
			start(20)
			e.PostFunc(22, func() { start(20) })
			e.PostFunc(24, func() { start(20) })
		}},
		{name: "stop from inside the callback", play: func(e *Engine, start func(Time), stop func()) { start(10) },
			tick: func(n int, e *Engine, start func(Time), stop func()) {
				if n == 3 {
					stop()
				}
			}},
		{name: "restart from inside the callback", play: func(e *Engine, start func(Time), stop func()) { start(10) },
			tick: func(n int, e *Engine, start func(Time), stop func()) {
				if n == 2 {
					stop()
					start(15)
				}
			}},
		{name: "halt inside the callback ends the timer", play: func(e *Engine, start func(Time), stop func()) { start(10) },
			tick: func(n int, e *Engine, start func(Time), stop func()) {
				if n == 2 {
					e.Halt()
				}
			}},
		{name: "stopped before the first tick", play: func(e *Engine, start func(Time), stop func()) {
			start(10)
			e.PostFunc(5, stop)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, got := c.run(false), c.run(true)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Ticker and Every disagree\nticker: %v\nevery:  %v", got, want)
			}
		})
	}
}

func TestTickerPanicsOnBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Start(0) did not panic")
		}
	}()
	var tk Ticker
	tk.Start(NewEngine(1), 0, nop, nil)
}

// TestWarmTickerAllocatesNothing: a running ticker, and one stopped and
// started again after its orphaned tick has drained, never allocate.
func TestWarmTickerAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	var tk Ticker
	n := 0
	count := func(a any) { *a.(*int)++ }
	tk.Start(e, Millisecond, count, &n)
	e.Run(Time(ringSlots)<<slotShift + 50*Millisecond) // one lap: every slot has its group table
	if avg := testing.AllocsPerRun(10, func() {
		e.Run(e.Now() + 20*Millisecond)
		tk.Stop()
		e.Run(e.Now() + 2*Millisecond)
		tk.Start(e, Millisecond, count, &n)
	}); avg != 0 {
		t.Errorf("a warm ticker allocated %.1f times per cycle, want 0", avg)
	}
	if n < 8000 {
		t.Errorf("ticker fired %d times", n)
	}
}

// TestStoppedTickerReleasesItsOwner: the tick a Stop leaves queued, for up to
// a whole interval, must not keep the ticker — and with it the owner it is
// embedded in — reachable. Tens of thousands of finished jobs a run each
// leave one such tick behind.
func TestStoppedTickerReleasesItsOwner(t *testing.T) {
	e := NewEngine(1)
	type owner struct {
		tk  Ticker
		pad [1 << 10]byte
	}
	o := &owner{}
	o.tk.Start(e, 30*Second, nop, o)
	collected := make(chan struct{})
	runtime.SetFinalizer(o, func(*owner) { close(collected) })
	o.tk.Stop()
	o = nil
	for i := 0; i < 10; i++ {
		runtime.GC()
		select {
		case <-collected:
			if e.Pending() != 1 {
				t.Errorf("pending = %d, want the orphaned tick still queued", e.Pending())
			}
			e.Run(Minute)
			if e.Fired() != 1 || len(e.ticks) != 1 {
				t.Errorf("fired=%d recycled=%d, want the orphan fired once as a no-op and its record recycled", e.Fired(), len(e.ticks))
			}
			return
		case <-time.After(20 * time.Millisecond): // the finalizer runs on its own goroutine
		}
	}
	t.Error("a stopped ticker's queued tick keeps its owner alive")
}
