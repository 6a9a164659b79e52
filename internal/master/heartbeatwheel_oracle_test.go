package master

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// beatWheel is the timer wheel the dead-agent scan used before it became one
// sweep of lastBeat per scan tick, kept as the sweep's oracle. It files each
// machine under the slot of its last observed beat and scans only slots old
// enough to possibly hold an expired machine; fresh machines encountered
// there are lazily re-filed under their current beat slot, so a scan costs
// O(expired + re-filed) instead of O(machines). At the paper's 5,000
// machines that saved a few thousand integer comparisons a second and cost
// a map of slot lists; the sweep is the shipped design.
//
// The wheel stores only dense machine IDs and slot membership; the
// authoritative last-beat timestamps stay in the master's lastBeat slice.
type beatWheel struct {
	slotW sim.Time          // slot width (the heartbeat-scan period)
	slots map[int64][]int32 // beat-slot -> machine IDs filed there
	in    []bool            // wheel membership by machine ID (one slot per machine)
	min   int64             // lowest possibly-occupied slot
	max   int64             // highest occupied slot
}

func newBeatWheel(slotW sim.Time, machines int) *beatWheel {
	if slotW <= 0 {
		slotW = sim.Second
	}
	return &beatWheel{
		slotW: slotW,
		slots: make(map[int64][]int32),
		in:    make([]bool, machines),
		min:   1<<62 - 1,
	}
}

func (w *beatWheel) slotOf(t sim.Time) int64 { return int64(t / w.slotW) }

// track files a machine under the slot of its beat time if it is not
// already in the wheel. Subsequent beats only update the caller's lastBeat
// slice; the wheel position catches up lazily when the stale slot expires.
func (w *beatWheel) track(machine int32, beat sim.Time) {
	if w.in[machine] {
		return
	}
	w.in[machine] = true
	w.file(machine, w.slotOf(beat))
}

func (w *beatWheel) file(machine int32, slot int64) {
	w.slots[slot] = append(w.slots[slot], machine)
	if slot < w.min {
		w.min = slot
	}
	if slot > w.max {
		w.max = slot
	}
}

// expire drains every slot old enough to possibly hold a machine whose last
// beat precedes cutoff, consulting lastBeat for the current truth. Machines
// that beat since filing are re-filed under a fresh slot; machines the
// caller no longer wants tracked (drop returns true) leave the wheel; the
// rest — silent since before cutoff — are expired and returned in sorted
// order (ID order == sorted machine-name order). Expired or dropped
// machines re-enter the wheel on their next heartbeat via track. Death
// semantics match the previous full sweep exactly (dead iff lastBeat <
// cutoff) when the heartbeat timeout is a multiple of the slot width;
// otherwise detection may land one scan later.
func (w *beatWheel) expire(cutoff sim.Time, lastBeat func(int32) sim.Time, drop func(int32) bool) []int32 {
	cutoffSlot := w.slotOf(cutoff)
	var dead []int32
	for slot := w.min; slot <= cutoffSlot && slot <= w.max; slot++ {
		machines, ok := w.slots[slot]
		if !ok {
			continue
		}
		delete(w.slots, slot)
		for _, m := range machines {
			last := lastBeat(m)
			if last < cutoff {
				w.in[m] = false
				if !drop(m) {
					dead = append(dead, m)
				}
				continue
			}
			if drop(m) {
				w.in[m] = false
				continue
			}
			// Still alive: re-file under its current beat slot — never the
			// slot being drained, so the sweep cannot revisit it (a live
			// beat at or after cutoff files at least at cutoffSlot, and
			// equal-slot landings are nudged one slot forward).
			fresh := w.slotOf(last)
			if fresh <= slot {
				fresh = slot + 1
			}
			w.file(m, fresh)
		}
	}
	if cutoffSlot+1 > w.min {
		w.min = cutoffSlot + 1
	}
	// Deterministic revocation order regardless of re-file history.
	slices.Sort(dead)
	return dead
}

// beatWorld drives the shipped sweep — a real primary's scanHeartbeats, its
// timers stopped so the world picks every scan instant — and the wheel over
// one stream of beats, machine downs and ups, and promotion baselines. Scans
// come every heartbeatScan from the last promotion, as the master's own
// timer fires them; the wheel's exactness rests on that cadence.
type beatWorld struct {
	t     *testing.T
	m     *Master
	eng   *sim.Engine
	wheel *beatWheel
	next  sim.Time // next scan instant
	log   []death  // every declaration, in order
}

// death is one machine declared dead at one scan.
type death struct {
	at sim.Time
	mc int32
}

func newBeatWorld(t *testing.T, racks, perRack int) *beatWorld {
	t.Helper()
	h := newMasterHarnessOn(t, Config{ProcessName: "fm-1"}, testTop(t, racks, perRack))
	h.eng.Run(10 * sim.Millisecond)
	if !h.m1.IsPrimary() {
		t.Fatal("master never took the lease")
	}
	for _, c := range h.m1.timers {
		c()
	}
	h.m1.timers = nil
	// The epoch-1 term: nothing heard from, the first scan one period in.
	return &beatWorld{t: t, m: h.m1, eng: h.eng,
		wheel: newBeatWheel(heartbeatScan, h.top.Size()),
		next:  h.eng.Now() + heartbeatScan}
}

func (w *beatWorld) machines() int32 { return int32(len(w.m.lastBeat)) }

// at moves the clock to t, scanning at every scan instant up to and
// including t.
func (w *beatWorld) at(t sim.Time) {
	for w.next <= t {
		w.scan()
	}
	w.eng.Run(t)
}

// beat is handleHeartbeat's part in detection: stamp the beat, bring a down
// machine back up.
func (w *beatWorld) beat(mc int32) {
	now := w.eng.Now()
	w.m.lastBeat[mc] = now
	w.wheel.track(mc, now)
	if w.m.sched.Down(mc) {
		w.m.sched.MachineUp(mc)
	}
}

func (w *beatWorld) down(mc int32) { w.m.sched.MachineDown(mc) }

// promote is a successor's baseline: every machine stamped at the promotion
// instant, a fresh scheduler's every machine up, a fresh wheel holding every
// machine, and the scans restarting one period in.
func (w *beatWorld) promote() {
	now := w.eng.Now()
	w.wheel = newBeatWheel(heartbeatScan, int(w.machines()))
	for mc := int32(0); mc < w.machines(); mc++ {
		w.m.lastBeat[mc] = now
		w.wheel.track(mc, now)
		if w.m.sched.Down(mc) {
			w.m.sched.MachineUp(mc)
		}
	}
	w.next = now + heartbeatScan
}

// scan runs both detectors at the next scan instant and compares them. The
// wheel reads the down flags before the sweep changes them, as the scan it
// served did; the sweep's declarations are the machines it took down, read
// in machine-ID order, the order it visits them in.
func (w *beatWorld) scan() {
	w.eng.Run(w.next)
	w.next += heartbeatScan
	now := w.eng.Now()
	want := w.wheel.expire(now-heartbeatTimeout,
		func(mc int32) sim.Time { return w.m.lastBeat[mc] }, w.m.sched.Down)
	wasDown := make([]bool, w.machines())
	for mc := range wasDown {
		wasDown[mc] = w.m.sched.Down(int32(mc))
	}
	w.m.scanHeartbeats()
	var got []int32
	for mc, was := range wasDown {
		if !was && w.m.sched.Down(int32(mc)) {
			got = append(got, int32(mc))
			w.log = append(w.log, death{now, int32(mc)})
		}
	}
	if !slices.Equal(got, want) {
		w.t.Fatalf("scan at %v: sweep declared %v dead, wheel %v", now, got, want)
	}
}

// run decodes a byte script, one op per byte on machine b>>3: a beat (three
// codes in eight, so most machines stay alive), a down, clock steps from 1 ms
// to a whole timeout, and a promotion baseline.
func (w *beatWorld) run(script []byte) {
	for _, b := range script {
		mc, arg := int32(b>>3)%w.machines(), sim.Time(b>>3)
		now := w.eng.Now()
		switch b & 7 {
		case 0, 1, 2:
			w.beat(mc)
		case 3:
			w.at(now + (arg+1)*50*sim.Millisecond)
		case 4:
			w.at(now + heartbeatScan)
		case 5:
			w.down(mc)
		case 6:
			w.at(now + arg*sim.Millisecond)
		case 7:
			if arg == 0 {
				w.promote()
			} else {
				w.at(now + heartbeatTimeout)
			}
		}
	}
	w.at(w.eng.Now() + heartbeatTimeout + heartbeatScan)
}

// TestHeartbeatSweepMatchesWheel: over seeded streams on 12 machines, every
// scan declares the same machines dead, in the same order, in the sweep and
// in the wheel it replaced.
func TestHeartbeatSweepMatchesWheel(t *testing.T) {
	deaths := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 400)
		rng.Read(script)
		w := newBeatWorld(t, 3, 4)
		w.run(script)
		deaths += len(w.log)
	}
	if deaths < 40 {
		t.Fatalf("%d declarations over 40 streams: the oracle compared too little", deaths)
	}
}

// FuzzHeartbeatWheelOracle: hostile streams of beats, downs, ups, promotion
// baselines and clock steps over 12 machines; sweep and wheel agree at every
// scan.
func FuzzHeartbeatWheelOracle(f *testing.F) {
	f.Add([]byte{0, 8, 16, 4, 4, 4, 4, 4})
	f.Add([]byte{0, 8, 4, 5, 13, 4, 4, 4, 7, 4, 4, 4, 4})
	f.Add([]byte{1, 9, 17, 25, 3, 11, 19, 27, 35, 4, 13, 21, 4, 4, 7, 14, 22, 4, 4, 4})
	f.Fuzz(func(t *testing.T, script []byte) {
		newBeatWorld(t, 3, 4).run(script)
	})
}

// TestHeartbeatSweepCases pins the detection rule on a four-machine world,
// each case run through the sweep and the wheel: a machine is declared dead
// at the first scan whose cutoff (now - heartbeatTimeout) is later than its
// last beat, once, and never if it was never heard from or is already down.
func TestHeartbeatSweepCases(t *testing.T) {
	const s = heartbeatScan
	for _, tc := range []struct {
		name string
		// script runs on a fresh world from a scan instant s0 and returns
		// the declarations it expects over the whole run.
		script func(w *beatWorld, s0 sim.Time) []death
	}{{
		name: "silent for exactly the timeout",
		script: func(w *beatWorld, s0 sim.Time) []death {
			w.beat(1) // at s0: the scan at s0+3s has cutoff == last
			w.at(s0 + 10*s)
			return []death{{s0 + heartbeatTimeout + s, 1}}
		},
	}, {
		name: "last beat just inside the timeout",
		script: func(w *beatWorld, s0 sim.Time) []death {
			w.at(s0 + 1)
			w.beat(1)
			w.at(s0 + 10*s)
			return []death{{s0 + heartbeatTimeout + s, 1}}
		},
	}, {
		name: "last beat just past the timeout",
		script: func(w *beatWorld, s0 sim.Time) []death {
			w.at(s0 + s - 1) // 1 ns before the scan at s0+s
			w.beat(1)
			w.at(s0 + 10*s)
			return []death{{s0 + s + heartbeatTimeout, 1}}
		},
	}, {
		name: "never heard from",
		script: func(w *beatWorld, s0 sim.Time) []death {
			for i := sim.Time(0); i < 10; i++ {
				w.at(s0 + i*s)
				w.beat(0)
			}
			w.at(s0 + 20*s)
			return []death{{s0 + 9*s + heartbeatTimeout + s, 0}}
		},
	}, {
		name: "already down",
		script: func(w *beatWorld, s0 sim.Time) []death {
			w.beat(3)
			w.down(3)
			w.at(s0 + 10*s)
			w.beat(3) // back up, then silent
			w.at(s0 + 20*s)
			return []death{{s0 + 10*s + heartbeatTimeout + s, 3}}
		},
	}, {
		name: "dead before a promotion's baseline",
		script: func(w *beatWorld, s0 sim.Time) []death {
			w.beat(2)
			w.at(s0 + 6*s + s/2)
			p := w.eng.Now()
			// The baseline stamps every machine, the dead one and the three
			// never heard from too, and brings the dead one up; all four
			// stay silent.
			w.promote()
			w.at(p + 10*s)
			dead := p + heartbeatTimeout + s
			return []death{{s0 + heartbeatTimeout + s, 2}, {dead, 0}, {dead, 1}, {dead, 2}, {dead, 3}}
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			w := newBeatWorld(t, 2, 2)
			s0 := w.next
			w.at(s0)
			want := tc.script(w, s0)
			if !slices.Equal(w.log, want) {
				t.Errorf("declared %v, want %v", w.log, want)
			}
		})
	}
}
