package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// The engine oracle: one op script, decoded from bytes, driven through the
// shipped by-value Engine and through the pointer-pool engine it replaced
// (ptrengine_test.go). Everything observable must agree — the (time, id)
// firing sequence, what every Run returned, Fired, Pending and Now after
// every op. TestEngineOracle feeds it seeded random scripts;
// FuzzEngineOracle lets the fuzzer write them. One op differs by side: where
// the oracle arms an Every, the shipped engine starts a caller-owned Ticker,
// which must fire at the same (time, order) through stops, restarts and
// stops from inside its own callback.

// queue is the surface both engines share.
type queue interface {
	Now() Time
	At(Time, func()) Cancel
	After(Time, func()) Cancel
	Post(Time, func(any), any)
	PostFunc(Time, func())
	Every(Time, func()) Cancel
	Run(Time) uint64
	RunUntilIdle() uint64
	Halt()
	Pending() int
	Fired() uint64
}

// script interprets one byte string against one engine and logs what it
// sees. Every choice comes from the bytes or from an event's id, never from
// the engine, so two engines that behave alike log alike.
type script struct {
	q       queue
	in      []byte
	pos     int
	log     []string
	ids     int
	handles []Cancel // every Cancel ever handed out, live or long stale
	everys  []Cancel
	// tickers are the caller-owned periodic timers: the shipped engine's side
	// drives a Ticker, the oracle's the Every it must be indistinguishable from.
	tickers [2]periodic
	budget  int // callbacks left before periodic timers are shut off
}

const tickerFloor = 20 * Millisecond

// periodic is the one op the two sides perform differently.
type periodic interface {
	start(d Time, fn func())
	stop()
}

type everyPeriodic struct {
	q      queue
	cancel Cancel
}

func (p *everyPeriodic) start(d Time, fn func()) {
	p.stop()
	p.cancel = p.q.Every(d, fn)
}

func (p *everyPeriodic) stop() {
	if p.cancel != nil {
		p.cancel()
		p.cancel = nil
	}
}

type tickerPeriodic struct {
	e *Engine
	t Ticker
}

func (p *tickerPeriodic) start(d Time, fn func()) { p.t.Start(p.e, d, callFunc, fn) }
func (p *tickerPeriodic) stop()                   { p.t.Stop() }

// stopPeriodic shuts off everything that would keep a drain from ending.
func (s *script) stopPeriodic() {
	for _, c := range s.everys {
		c()
	}
	s.everys = nil
	for _, p := range s.tickers {
		p.stop()
	}
}

func (s *script) byte() byte {
	if s.pos >= len(s.in) {
		return 0
	}
	b := s.in[s.pos]
	s.pos++
	return b
}

// delay decodes a delay spanning the cases the queue treats differently:
// the firing instant itself, the same slot, another slot of the ring, past
// the 8.4 s horizon into the far heap, whole seconds (so instants collide
// and groups grow), and the negative delays Post and After clamp.
func (s *script) delay() Time {
	kind, v := s.byte(), Time(s.byte())
	switch kind % 7 {
	case 0:
		return 0
	case 1:
		return v
	case 2:
		return v * Millisecond
	case 3:
		return v * 100 * Millisecond // up to 25.5 s: three ring horizons
	case 4:
		return (v % 12) * Second
	case 5:
		return -v
	default:
		return Time(ringSlots)<<slotShift - 2 + v%5 // either side of the horizon
	}
}

// fire is every callback's body: log, then do what the event's id says —
// nothing, re-enter the firing instant, schedule ahead, schedule "in the
// past", cancel some handle, or halt the run.
func (s *script) fire(id int) {
	s.log = append(s.log, fmt.Sprintf("%d@%d", id, s.q.Now()))
	if s.budget--; s.budget <= 0 {
		s.stopPeriodic()
		return
	}
	switch id % 11 {
	case 1:
		s.post(0)
	case 2:
		s.post(Time(id*7919%3000) * Millisecond / 10)
	case 3:
		s.handles = append(s.handles, s.q.At(s.q.Now()-Time(id%50), s.callback()))
	case 4:
		if len(s.handles) > 0 {
			s.handles[id*31%len(s.handles)]()
		}
	case 5:
		if id%4 == 1 {
			s.q.Halt()
		}
	case 6:
		s.post(Time(ringSlots) << slotShift) // first slot past the horizon
	case 7:
		s.tickers[id%2].stop() // its own, when this is that ticker's callback
	case 8:
		s.tickers[id%2].start(tickerFloor+Time(id%40)*Millisecond, s.callback()) // likewise a restart
	}
}

func (s *script) callback() func() {
	s.ids++
	id := s.ids
	return func() { s.fire(id) }
}

func fireArg(a any) {
	r := a.(*firing)
	r.s.fire(r.id)
}

type firing struct {
	s  *script
	id int
}

func (s *script) post(d Time) {
	s.ids++
	s.q.Post(d, fireArg, &firing{s, s.ids})
}

func (s *script) run() []string {
	for s.pos < len(s.in) {
		switch op := s.byte(); op % 14 {
		case 0, 1, 2:
			s.post(s.delay())
		case 3:
			s.q.PostFunc(s.delay(), s.callback())
		case 4:
			s.handles = append(s.handles, s.q.After(s.delay(), s.callback()))
		case 5:
			s.handles = append(s.handles, s.q.At(s.q.Now()+s.delay(), s.callback()))
		case 6:
			if d := s.delay(); d > 0 && len(s.everys) < 4 {
				c := s.q.Every(d, s.callback())
				s.everys = append(s.everys, c)
				s.handles = append(s.handles, c)
			}
		case 7:
			if len(s.handles) > 0 {
				s.handles[int(s.byte())%len(s.handles)]()
			}
		case 8, 9:
			n := s.q.Run(s.q.Now() + s.delay())
			s.log = append(s.log, fmt.Sprintf("run=%d", n))
		case 10:
			// A burst at one instant: the group outgrows several size classes.
			d := s.delay()
			for i := int(s.byte()); i > 0; i-- {
				s.post(d)
			}
		case 11:
			s.stopPeriodic()
			n := s.q.RunUntilIdle()
			s.log = append(s.log, fmt.Sprintf("idle=%d", n))
		case 12:
			// At least tickerFloor apart, so a long run leaves most of the
			// script's callback budget to the other ops.
			if p, d := s.tickers[s.byte()%2], s.delay(); d > 0 {
				p.start(d+tickerFloor, s.callback())
			}
		case 13:
			s.tickers[s.byte()%2].stop()
		}
		s.log = append(s.log, fmt.Sprintf("now=%d fired=%d pending=%d", s.q.Now(), s.q.Fired(), s.q.Pending()))
	}
	s.stopPeriodic()
	for s.q.Pending() > 0 { // a Halt may end a drain early
		s.log = append(s.log, fmt.Sprintf("drain=%d now=%d fired=%d pending=%d",
			s.q.RunUntilIdle(), s.q.Now(), s.q.Fired(), s.q.Pending()))
	}
	return s.log
}

// checkOracle runs one script on both engines and reports the first line on
// which they differ.
func checkOracle(in []byte) error {
	const budget = 20000 // callbacks per script: re-entrant events may breed
	ref, eng := newPtrEngine(1), NewEngine(1)
	want := (&script{q: ref, in: in, budget: budget,
		tickers: [2]periodic{&everyPeriodic{q: ref}, &everyPeriodic{q: ref}}}).run()
	got := (&script{q: eng, in: in, budget: budget,
		tickers: [2]periodic{&tickerPeriodic{e: eng}, &tickerPeriodic{e: eng}}}).run()
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			g := "<end of log>"
			if i < len(got) {
				g = got[i]
			}
			return fmt.Errorf("line %d of %d: by-value engine %q, pointer-pool engine %q", i, len(want), g, want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("by-value engine logged %d lines, pointer-pool engine %d", len(got), len(want))
	}
	return nil
}

func TestEngineOracle(t *testing.T) {
	scripts, size := 300, 400
	if testing.Short() {
		scripts = 60
	}
	for seed := 0; seed < scripts; seed++ {
		in := make([]byte, size)
		rand.New(rand.NewSource(int64(seed))).Read(in)
		if err := checkOracle(in); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestEngineOracleCoversTheHardCases guards the script decoder, not the
// engine: a refactor of the op table must keep producing the situations the
// oracle exists for.
func TestEngineOracleCoversTheHardCases(t *testing.T) {
	in := make([]byte, 4000)
	rand.New(rand.NewSource(1)).Read(in)
	e := NewEngine(1)
	var far, classes, staleCancels int
	s := &script{in: in, budget: 20000, tickers: [2]periodic{&tickerPeriodic{e: e}, &tickerPeriodic{e: e}}}
	s.q = probe{e, func() {
		far = max(far, len(e.far))
		for k := range e.free {
			if len(e.free[k]) > 0 {
				classes = max(classes, k)
			}
		}
	}}
	s.run()
	for _, c := range s.handles {
		c() // every one of these is stale by now: the drain fired or dropped them
		staleCancels++
	}
	if e.Now() < 3*Time(ringSlots)<<slotShift {
		t.Errorf("script ended at %v: fewer than three ring laps", e.Now())
	}
	if far == 0 || classes < 3 || staleCancels == 0 || len(e.cells) == 0 {
		t.Errorf("far heap peak %d, largest recycled class %d, stale cancels %d, recycled cells %d: a case is missing",
			far, classes, staleCancels, len(e.cells))
	}
}

// probe runs a hook after every Run, to look inside the engine mid-script.
type probe struct {
	*Engine
	after func()
}

func (p probe) Run(until Time) uint64 {
	n := p.Engine.Run(until)
	p.after()
	return n
}

func FuzzEngineOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{10, 4, 1, 200, 8, 3, 90, 11})                            // burst, run across the horizon, drain
	f.Add([]byte{4, 2, 5, 7, 0, 8, 2, 9, 7, 0, 11})                       // After, cancel, run, cancel again (stale)
	f.Add([]byte{6, 2, 3, 0, 6, 5, 8, 3, 255, 11})                        // Every, far Post, long run
	f.Add([]byte{5, 5, 9, 3, 6, 1, 8, 0, 0, 0, 1, 7, 8, 4, 11})           // At in the past, horizon edge, zero-length run
	f.Add([]byte{10, 0, 0, 40, 1, 0, 0, 8, 0, 0, 10, 0, 0, 255})          // same-instant bursts around a zero-length run
	f.Add([]byte{12, 0, 2, 30, 8, 3, 5, 13, 0, 12, 0, 2, 9, 8, 3, 9, 11}) // Ticker: run, stop, restart faster under the orphaned tick, run, drain
	f.Add([]byte{12, 1, 3, 200, 12, 1, 3, 200, 13, 1, 8, 3, 255, 11})     // Ticker restarted at its own instant, stopped beyond the horizon
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 2000 {
			in = in[:2000]
		}
		if err := checkOracle(in); err != nil {
			t.Fatal(err)
		}
	})
}

func nop(any) {}

// TestWarmPostAndFireAllocateNothing is the alloc gate: once the engine has
// seen its peak, scheduling and firing allocate nothing — not for the steady
// trickle of small instants, and not for the 5,000 events that share an
// instant once a second and land in a different slot on every ring lap.
func TestWarmPostAndFireAllocateNothing(t *testing.T) {
	e := NewEngine(1)
	arg := &firing{}
	lap := Time(ringSlots) << slotShift
	oneLap := func() {
		end := e.Now() + lap + 137*Millisecond
		for e.Now() < end {
			for i := 0; i < 5000; i++ {
				e.Post(Second, nop, arg) // one instant, one second out
			}
			for i := 0; i < 200; i++ {
				e.Post(Time(i)*5*Millisecond+Time(i%3), nop, arg)
			}
			e.Post(lap+Second, nop, arg) // far heap and back
			e.Run(e.Now() + Second)
		}
	}
	// Warm: every slot's group table sees more instants than a lap below
	// gives it, then one lap shows the free list and the far heap their peak.
	for k := 0; k < ringSlots; k++ {
		for j := 0; j < 4; j++ {
			e.Post(Time(k)<<slotShift+Time(j), nop, arg)
		}
	}
	e.Run(lap)
	oneLap()
	if avg := testing.AllocsPerRun(3, oneLap); avg != 0 {
		t.Errorf("a warm engine allocated %.1f times per ring lap, want 0", avg)
	}
}

// BenchmarkPostFire measures one Post plus its firing on a warm engine, for
// events alone at their instant (a message delivery) and for the 5,000 that
// share one (the agents' heartbeat second), on both engines.
func BenchmarkPostFire(b *testing.B) {
	engines := []struct {
		name string
		make func() queue
	}{
		{"byvalue", func() queue { return NewEngine(1) }},
		{"oracle-ptrpool", func() queue { return newPtrEngine(1) }},
	}
	for _, eng := range engines {
		for _, group := range []int{1, 5000} {
			b.Run(fmt.Sprintf("%s/group=%d", eng.name, group), func(b *testing.B) {
				e := eng.make()
				arg := &firing{}
				b.ReportAllocs()
				for i := 0; i < b.N; i += group {
					for j := 0; j < group; j++ {
						e.Post(Millisecond, nop, arg)
					}
					e.Run(e.Now() + Millisecond)
				}
			})
		}
	}
}
