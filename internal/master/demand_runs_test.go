package master

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/lockservice"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Two earlier shapes of an application master's instant are kept as oracles
// of the one DemandUpdate it sends now, and the master must decide the same
// either way: the per-unit form — one DemandUpdate per ScheduleUnit, as
// application masters sent before an update carried every unit of the app —
// and the two-message form — the instant's returns in one message, then its
// demand in another, as they were sent before one update carried both.

// flatGrants concatenates every entry of the grant updates an app received,
// in arrival order: the decisions it was told about, however many messages
// carried them.
func flatGrants(gus []protocol.GrantUpdate, app string) []protocol.UnitDelta {
	var out []protocol.UnitDelta
	for _, gu := range gus {
		if gu.App == app {
			out = append(out, gu.Changes...)
		}
	}
	return out
}

// holdsAll reports whether every hint names a node of top: FuxiMaster drops
// an update or sync with any other hint whole.
func holdsAll(top *topology.Topology, hints []protocol.UnitHint) bool {
	for _, h := range hints {
		if !top.Holds(h.Type, h.Node) {
			return false
		}
	}
	return true
}

// TestOneMessageEqualsPerUnitSplit drives two masters through one seeded
// script — multi-unit demand updates (additions and withdrawals at machine,
// rack and cluster level, machine IDs outside the topology), returns, machine
// deaths and recoveries — where one master hears each demand update whole and
// the other its per-unit split, the runs as messages of their own delivered
// back to back. An update with a hint outside the topology is dropped whole,
// so the split of one is not sent at all. With and without batched rounds, every app must be told the
// same decisions in the same order, and every unit's grants and queued demand
// must match after every step. In batched rounds the grant updates themselves
// are equal: a round sends each app one.
func TestOneMessageEqualsPerUnitSplit(t *testing.T) {
	for _, batch := range []sim.Time{0, 20 * sim.Millisecond} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("batch=%v/seed=%d", batch, seed), func(t *testing.T) {
				oneMessageEqualsSplit(t, seed, batch)
			})
		}
	}
}

func oneMessageEqualsSplit(t *testing.T, seed int64, batch sim.Time) {
	cfg := Config{ProcessName: "fm-1"}
	cfg.BatchWindow = batch
	ws := [2]*syncWorld{newSyncWorld(t, cfg, false), newSyncWorld(t, cfg, false)}
	rng := rand.New(rand.NewSource(seed))
	top := ws[0].m.top
	machines, racks := top.Size(), top.NumRacks()
	seqs := [2][]protocol.Sequencer{make([]protocol.Sequencer, len(syncApps)), make([]protocol.Sequencer, len(syncApps))}
	for i := range syncApps {
		seqs[0][i].Next() // the registrations
		seqs[1][i].Next()
	}
	send := func(w int, app string, msg transport.Message) {
		ws[w].net.SendID(ws[w].net.Endpoint(app), ws[w].net.Endpoint(protocol.MasterEndpoint), twin(msg))
	}
	multi, dropped := 0, 0
	for step := 0; step < 300; step++ {
		ai := rng.Intn(len(syncApps))
		a := syncApps[ai]
		switch r := rng.Intn(100); {
		case r < 45:
			var deltas []protocol.UnitHint
			ids := make([]int, len(a.units))
			for i, u := range a.units {
				ids[i] = u.ID
			}
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			for _, id := range ids[:1+rng.Intn(min(4, len(ids)))] {
				for n := 1 + rng.Intn(3); n > 0; n-- {
					h := resource.LocalityHint{Type: resource.LocalityCluster}
					switch rng.Intn(6) {
					case 0, 1:
						h = resource.LocalityHint{Type: resource.LocalityMachine, Node: int32(rng.Intn(machines))}
					case 2:
						h = resource.LocalityHint{Type: resource.LocalityRack, Node: int32(rng.Intn(racks))}
					case 3:
						h = resource.LocalityHint{Type: resource.LocalityMachine, Node: int32(machines)}
					}
					if h.Count = rng.Intn(7) - 2; h.Count >= 0 {
						h.Count++
					}
					deltas = append(deltas, protocol.UnitHint{UnitID: id, LocalityHint: h})
				}
			}
			whole := &protocol.DemandUpdate{App: a.name, Deltas: deltas, Seq: seqs[0][ai].Next()}
			if !whole.WellFormed() {
				t.Fatalf("step %d: the script built a malformed update %+v", step, whole)
			}
			send(0, a.name, whole)
			if !holdsAll(top, deltas) {
				dropped++
				break
			}
			runs := 0
			for rest := deltas; len(rest) > 0; runs++ {
				var run []protocol.UnitHint
				run, rest = protocol.NextRun(rest)
				send(1, a.name, &protocol.DemandUpdate{App: a.name, Deltas: run, Seq: seqs[1][ai].Next()})
			}
			if runs > 1 {
				multi++
			}
		case r < 70:
			u := a.units[rng.Intn(len(a.units))].ID
			cells := ws[0].m.sched.GrantedCells(a.name, u)
			if len(cells) == 0 {
				break
			}
			c := cells[rng.Intn(len(cells))]
			ret := protocol.ReturnEntry{UnitID: u, Machine: int32(c.Key), Count: 1 + rng.Intn(c.Val)}
			for w := range ws {
				send(w, a.name, &protocol.DemandUpdate{App: a.name, Seq: seqs[w][ai].Next(), Returns: []protocol.ReturnEntry{ret}})
			}
		case r < 80:
			mc := int32(rng.Intn(machines))
			for _, w := range ws {
				if w.m.sched.Down(mc) {
					w.m.dispatch(w.m.sched.MachineUp(mc))
				} else {
					w.m.dispatch(w.m.sched.MachineDown(mc))
				}
			}
		}
		d := sim.Time(1+rng.Intn(60))*sim.Millisecond + 37*sim.Microsecond
		for _, w := range ws {
			w.eng.Run(w.eng.Now() + d)
		}

		if batch > 0 && !reflect.DeepEqual(ws[0].got, ws[1].got) {
			t.Fatalf("step %d: a round's grant updates diverged\n whole %+v\n split %+v", step, ws[0].got, ws[1].got)
		}
		for _, a := range syncApps {
			if g, s := flatGrants(ws[0].got, a.name), flatGrants(ws[1].got, a.name); !reflect.DeepEqual(g, s) {
				t.Fatalf("step %d: %s was told\n whole %v\n split %v", step, a.name, g, s)
			}
			for _, u := range a.units {
				s0, s1 := ws[0].m.sched, ws[1].m.sched
				if !slices.Equal(s0.GrantedCells(a.name, u.ID), s1.GrantedCells(a.name, u.ID)) ||
					!reflect.DeepEqual(s0.WaitingNodes(a.name, u.ID), s1.WaitingNodes(a.name, u.ID)) {
					t.Fatalf("step %d: %s unit %d diverged", step, a.name, u.ID)
				}
			}
		}
		for i, w := range ws {
			if bad := w.m.sched.CheckAllInvariants(); len(bad) > 0 {
				t.Fatalf("step %d: world %d invariants: %v", step, i, bad)
			}
		}
	}
	if multi == 0 || dropped == 0 || len(flatGrants(ws[0].got, "c")) == 0 {
		t.Fatalf("vacuous script: %d multi-unit updates, %d dropped, %d entries told to the wide app",
			multi, dropped, len(flatGrants(ws[0].got, "c")))
	}
	if batch == 0 && len(ws[0].got) >= len(ws[1].got) {
		t.Fatalf("the whole updates cost %d grant updates, the split %d: a step did not answer once", len(ws[0].got), len(ws[1].got))
	}
}

// byUnit groups the entries of the grant updates an app received by unit, each
// unit's in arrival order: the decisions it was told about, however many
// messages carried them and however each message grouped its runs.
func byUnit(gus []protocol.GrantUpdate, app string) map[int][]protocol.UnitDelta {
	out := map[int][]protocol.UnitDelta{}
	for _, ch := range flatGrants(gus, app) {
		out[ch.UnitID] = append(out[ch.UnitID], ch)
	}
	return out
}

// TestCombinedUpdateEqualsTwoMessageForm drives two masters through one seeded
// script of application-master instants — returns (some of more than is held,
// some on machines the unit holds nothing on), demand whose units come back in
// later runs, or both — with machine deaths and recoveries, and recovery
// windows that buffer everything and replay it at their end. One master hears
// each instant as one update, the other as a returns-only update followed by
// a demand-only one, back to back. With and without batched rounds, every
// app must be told the same decisions, each unit's in the same order, and
// every unit's grants and queued demand must match after every step. In
// batched rounds the grant updates themselves are equal: a round sends each
// app one.
func TestCombinedUpdateEqualsTwoMessageForm(t *testing.T) {
	for _, batch := range []sim.Time{0, 20 * sim.Millisecond} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("batch=%v/seed=%d", batch, seed), func(t *testing.T) {
				combinedEqualsTwoMessages(t, seed, batch)
			})
		}
	}
}

func combinedEqualsTwoMessages(t *testing.T, seed int64, batch sim.Time) {
	cfg := Config{ProcessName: "fm-1"}
	cfg.BatchWindow = batch
	ws := [2]*syncWorld{newSyncWorld(t, cfg, false), newSyncWorld(t, cfg, false)}
	rng := rand.New(rand.NewSource(seed))
	top := ws[0].m.top
	machines, racks := top.Size(), top.NumRacks()
	seqs := [2][]protocol.Sequencer{make([]protocol.Sequencer, len(syncApps)), make([]protocol.Sequencer, len(syncApps))}
	for i := range syncApps {
		seqs[0][i].Next() // the registrations
		seqs[1][i].Next()
	}
	send := func(w int, app string, msg transport.Message) {
		ws[w].net.SendID(ws[w].net.Endpoint(app), ws[w].net.Endpoint(protocol.MasterEndpoint), twin(msg))
	}
	both, buffered, recovery := 0, 0, 0
	for step := 0; step < 300; step++ {
		ai := rng.Intn(len(syncApps))
		a := syncApps[ai]
		switch r := rng.Intn(100); {
		case r < 70:
			var rets []protocol.ReturnEntry
			for n := rng.Intn(4); n > 0; n-- {
				u := a.units[rng.Intn(len(a.units))].ID
				mc := int32(rng.Intn(machines))
				if cells := ws[0].m.sched.GrantedCells(a.name, u); len(cells) > 0 && rng.Intn(4) > 0 {
					mc = int32(cells[rng.Intn(len(cells))].Key)
				}
				rets = append(rets, protocol.ReturnEntry{UnitID: u, Machine: mc, Count: 1 + rng.Intn(3)})
			}
			var deltas []protocol.UnitHint
			for runs := rng.Intn(4); runs > 0; runs-- {
				id := a.units[rng.Intn(len(a.units))].ID
				for n := 1 + rng.Intn(2); n > 0; n-- {
					h := resource.LocalityHint{Type: resource.LocalityCluster}
					switch rng.Intn(5) {
					case 0, 1:
						h = resource.LocalityHint{Type: resource.LocalityMachine, Node: int32(rng.Intn(machines))}
					case 2:
						h = resource.LocalityHint{Type: resource.LocalityRack, Node: int32(rng.Intn(racks))}
					}
					if h.Count = rng.Intn(6) - 1; h.Count >= 0 {
						h.Count++
					}
					deltas = append(deltas, protocol.UnitHint{UnitID: id, LocalityHint: h})
				}
			}
			if len(rets) == 0 && len(deltas) == 0 {
				break
			}
			send(0, a.name, &protocol.DemandUpdate{App: a.name, Returns: rets, Deltas: deltas, Seq: seqs[0][ai].Next()})
			if len(rets) > 0 {
				send(1, a.name, &protocol.DemandUpdate{App: a.name, Returns: rets, Seq: seqs[1][ai].Next()})
			}
			if len(deltas) > 0 {
				send(1, a.name, &protocol.DemandUpdate{App: a.name, Deltas: deltas, Seq: seqs[1][ai].Next()})
			}
			if len(rets) > 0 && len(deltas) > 0 {
				both++
				if recovery > 0 {
					buffered++
				}
			}
		case r < 85:
			mc := int32(rng.Intn(machines))
			for _, w := range ws {
				if w.m.sched.Down(mc) {
					w.m.dispatch(w.m.sched.MachineUp(mc))
				} else {
					w.m.dispatch(w.m.sched.MachineDown(mc))
				}
			}
		case r < 90 && recovery == 0:
			// A recovery window opens: what arrives until it closes is
			// buffered, then replayed by finishRecovery in one burst.
			for _, w := range ws {
				w.m.recovering = true
			}
			recovery = step + 3 + rng.Intn(6)
		}
		if step == recovery {
			for _, w := range ws {
				w.m.finishRecovery()
			}
			recovery = 0
		}
		// Steps are whole milliseconds plus an odd offset, so an action never
		// lands on the instant a batched round flushes.
		d := sim.Time(1+rng.Intn(60))*sim.Millisecond + 37*sim.Microsecond
		for _, w := range ws {
			w.eng.Run(w.eng.Now() + d)
		}

		if batch > 0 && !reflect.DeepEqual(ws[0].got, ws[1].got) {
			t.Fatalf("step %d: a round's grant updates diverged\n one %+v\n two %+v", step, ws[0].got, ws[1].got)
		}
		for _, a := range syncApps {
			if g, s := byUnit(ws[0].got, a.name), byUnit(ws[1].got, a.name); !reflect.DeepEqual(g, s) {
				t.Fatalf("step %d: %s was told\n one %v\n two %v", step, a.name, g, s)
			}
			for _, u := range a.units {
				s0, s1 := ws[0].m.sched, ws[1].m.sched
				if !slices.Equal(s0.GrantedCells(a.name, u.ID), s1.GrantedCells(a.name, u.ID)) ||
					!reflect.DeepEqual(s0.WaitingNodes(a.name, u.ID), s1.WaitingNodes(a.name, u.ID)) {
					t.Fatalf("step %d: %s unit %d diverged", step, a.name, u.ID)
				}
			}
		}
		for i, w := range ws {
			if bad := w.m.sched.CheckAllInvariants(); len(bad) > 0 {
				t.Fatalf("step %d: world %d invariants: %v", step, i, bad)
			}
		}
	}
	if both == 0 || buffered == 0 || len(flatGrants(ws[0].got, "c")) == 0 {
		t.Fatalf("vacuous script: %d instants returned and asked (%d of them buffered), %d entries told to the wide app",
			both, buffered, len(flatGrants(ws[0].got, "c")))
	}
	if batch == 0 && len(ws[0].got) >= len(ws[1].got) {
		t.Fatalf("the combined updates cost %d grant updates, the two-message form %d: a step did not answer once",
			len(ws[0].got), len(ws[1].got))
	}
}

// TestAppHearsOneGrantUpdatePerStep: a step answers each app with one grant
// update, whatever it decided for however many of the app's units — a spawn
// asking for four units at once, a batched round merging two of the app's
// demand updates (one unit in both) and a return, and a full sync whose held
// view is wrong on two units.
func TestAppHearsOneGrantUpdatePerStep(t *testing.T) {
	units := []resource.ScheduleUnit{unit(1, 10, 8, 1000, 2048), unit(2, 20, 8, 2000, 4096),
		unit(3, 30, 8, 500, 1024), unit(4, 40, 8, 1000, 1024)}
	cluster := func(id, n int) protocol.UnitHint {
		return protocol.UnitHint{UnitID: id, LocalityHint: resource.LocalityHint{Type: resource.LocalityCluster, Count: n}}
	}
	type world struct {
		eng  *sim.Engine
		net  *transport.Net
		m    *Master
		got  []protocol.GrantUpdate
		seq  protocol.Sequencer
		step func(msgs ...transport.Message) []protocol.GrantUpdate
	}
	newWorld := func(batch sim.Time) *world {
		eng := sim.NewEngine(1)
		w := &world{eng: eng, net: transport.NewNet(eng)}
		cfg := Config{ProcessName: "fm-1"}
		cfg.BatchWindow = batch
		w.m = NewMaster(cfg, eng, w.net, lockservice.New(eng), testTop(t, 2, 3), NewCheckpointStore())
		eng.Run(10 * sim.Millisecond)
		w.net.Register("w", func(_ tr, msg transport.Message) {
			if gu, ok := protocol.Keep(msg).(protocol.GrantUpdate); ok {
				w.got = append(w.got, gu)
			}
		})
		// step sends msgs back to back and returns the grant updates they
		// earned.
		w.step = func(msgs ...transport.Message) []protocol.GrantUpdate {
			n := len(w.got)
			for _, msg := range msgs {
				w.net.SendID(w.net.Endpoint("w"), w.net.Endpoint(protocol.MasterEndpoint), msg)
			}
			eng.Run(eng.Now() + 100*sim.Millisecond)
			return w.got[n:]
		}
		w.step(&protocol.RegisterApp{App: "w", Units: units, Seq: w.seq.Next()})
		return w
	}
	unitRuns := func(gu protocol.GrantUpdate) []int {
		var ids []int
		for rest := gu.Changes; len(rest) > 0; {
			var run []protocol.UnitDelta
			run, rest = protocol.NextRun(rest)
			ids = append(ids, run[0].UnitID)
		}
		return ids
	}

	t.Run("spawn", func(t *testing.T) {
		w := newWorld(0)
		got := w.step(&protocol.DemandUpdate{App: "w", Seq: w.seq.Next(),
			Deltas: []protocol.UnitHint{cluster(3, 2), cluster(1, 3), cluster(4, 1), cluster(2, 2)}})
		if len(got) != 1 || !slices.Equal(unitRuns(got[0]), []int{3, 1, 4, 2}) || !got[0].WellFormed() {
			t.Fatalf("the spawn earned %+v, want one update with runs for units 3, 1, 4, 2", got)
		}
	})
	t.Run("round", func(t *testing.T) {
		w := newWorld(20 * sim.Millisecond)
		w.step(&protocol.DemandUpdate{App: "w", Seq: w.seq.Next(), Deltas: []protocol.UnitHint{cluster(1, 2)}})
		mc := int32(w.m.sched.GrantedCells("w", 1)[0].Key)
		got := w.step(
			&protocol.DemandUpdate{App: "w", Seq: w.seq.Next(), Deltas: []protocol.UnitHint{cluster(2, 1), cluster(3, 1)}},
			&protocol.DemandUpdate{App: "w", Seq: w.seq.Next(), Returns: []protocol.ReturnEntry{{UnitID: 1, Machine: mc, Count: 1}}},
			&protocol.DemandUpdate{App: "w", Seq: w.seq.Next(), Deltas: []protocol.UnitHint{cluster(4, 2), cluster(2, 1), cluster(1, 1)}})
		// The round merges unit 2's hints from both updates and places the
		// units in the order they were first asked for.
		if len(got) != 1 || !slices.Equal(unitRuns(got[0]), []int{2, 3, 4, 1}) || !got[0].WellFormed() {
			t.Fatalf("the round earned %+v, want one update with runs for units 2, 3, 4, 1", got)
		}
		if held := w.m.sched.Held("w", 2); held != 2 {
			t.Fatalf("unit 2 holds %d after the round, want the 2 its two updates asked for", held)
		}
	})
	t.Run("sync repair", func(t *testing.T) {
		w := newWorld(0)
		first := w.step(&protocol.DemandUpdate{App: "w", Seq: w.seq.Next(),
			Deltas: []protocol.UnitHint{cluster(1, 2), cluster(2, 1), cluster(3, 2), cluster(4, 1)}})
		if len(first) != 1 {
			t.Fatalf("setup: %d grant updates", len(first))
		}
		// The app's held view lost units 1 and 3.
		sync := &protocol.FullDemandSync{App: "w", Units: units, SeenGrantSeq: first[0].Seq, Seq: w.seq.Current()}
		for _, u := range []int{2, 4} {
			for _, c := range w.m.sched.GrantedCells("w", u) {
				sync.Held = append(sync.Held, protocol.SyncHeld{UnitID: u, Machine: int32(c.Key), Count: c.Val})
			}
		}
		got := w.step(sync)
		if len(got) != 1 || !slices.Equal(unitRuns(got[0]), []int{1, 3}) || got[0].Seq != first[0].Seq+1 {
			t.Fatalf("the sync earned %+v, want one update re-announcing units 1 and 3", got)
		}
	})
}

// TestMalformedDemandIsDroppedWhole: a demand update that carries a zero
// count or a return of zero or fewer containers changes nothing — no release,
// no grant, no queued demand, no dedup mark — even where well-formed entries
// ride beside the bad one; the well-formed update with the same sequence
// number after it is applied. An update that brings a unit back in a later
// run is not malformed: it is placed like its contiguous form — to the
// machine in a batched round, which merges a unit's hints wherever they
// stand, and to the count when placed at once, run by run as they come.
func TestMalformedDemandIsDroppedWhole(t *testing.T) {
	h1 := func(id, n int) protocol.UnitHint {
		return protocol.UnitHint{UnitID: id, LocalityHint: resource.LocalityHint{Type: resource.LocalityCluster, Count: n}}
	}
	// setup registers app1's two units and has unit 1 hold one container,
	// on the machine it returns.
	setup := func(t *testing.T, batch sim.Time) (*masterHarness, int32) {
		cfg := Config{ProcessName: "fm-1"}
		cfg.BatchWindow = batch
		h := newMasterHarness(t, cfg)
		h.send(&protocol.RegisterApp{App: "app1", Seq: h.seq.Next(), Units: []resource.ScheduleUnit{
			unit(1, 100, 10, 1000, 2048), unit(2, 100, 10, 1000, 2048)}})
		h.send(&protocol.DemandUpdate{App: "app1", Seq: h.seq.Next(), Deltas: []protocol.UnitHint{h1(1, 1)}})
		h.eng.Run(h.eng.Now() + 100*sim.Millisecond)
		cells := h.m1.Scheduler().GrantedCells("app1", 1)
		if len(cells) != 1 {
			t.Fatalf("setup: unit 1 granted on %v, want one machine", cells)
		}
		return h, int32(cells[0].Key)
	}
	for _, batch := range []sim.Time{0, 20 * sim.Millisecond} {
		for _, c := range []struct {
			name string
			bad  func(mc int32) *protocol.DemandUpdate
		}{
			{"zero count", func(mc int32) *protocol.DemandUpdate {
				return &protocol.DemandUpdate{Returns: []protocol.ReturnEntry{{UnitID: 1, Machine: mc, Count: 1}},
					Deltas: []protocol.UnitHint{h1(1, 2), h1(2, 0)}}
			}},
			{"zero return", func(mc int32) *protocol.DemandUpdate {
				return &protocol.DemandUpdate{Returns: []protocol.ReturnEntry{{UnitID: 1, Machine: mc, Count: 1}, {UnitID: 1, Machine: mc, Count: 0}},
					Deltas: []protocol.UnitHint{h1(1, 2), h1(2, 1)}}
			}},
			{"negative return", func(mc int32) *protocol.DemandUpdate {
				return &protocol.DemandUpdate{Returns: []protocol.ReturnEntry{{UnitID: 2, Machine: mc, Count: -1}, {UnitID: 1, Machine: mc, Count: 1}},
					Deltas: []protocol.UnitHint{h1(1, 2), h1(2, 1)}}
			}},
		} {
			t.Run(fmt.Sprintf("%s/batch=%v", c.name, batch), func(t *testing.T) {
				h, mc := setup(t, batch)
				seq := h.seq.Next()
				bad := c.bad(mc)
				bad.App, bad.Seq = "app1", seq
				h.send(bad)
				h.eng.Run(h.eng.Now() + 100*sim.Millisecond)
				s := h.m1.Scheduler()
				if s.Held("app1", 1) != 1 || s.GrantedOn("app1", 1, mc) != 1 || s.Held("app1", 2) != 0 ||
					s.Waiting("app1", 1) != 0 || s.Waiting("app1", 2) != 0 {
					t.Fatalf("after the malformed update: held %d/%d, waiting %d/%d; want 1/0, 0/0",
						s.Held("app1", 1), s.Held("app1", 2), s.Waiting("app1", 1), s.Waiting("app1", 2))
				}
				h.send(&protocol.DemandUpdate{App: "app1", Seq: seq,
					Returns: []protocol.ReturnEntry{{UnitID: 1, Machine: mc, Count: 1}},
					Deltas:  []protocol.UnitHint{h1(1, 2), h1(2, 1)}})
				h.eng.Run(h.eng.Now() + 100*sim.Millisecond)
				if s.Held("app1", 1) != 2 || s.Held("app1", 2) != 1 {
					t.Fatalf("the well-formed update after it: held %d/%d, want 2/1", s.Held("app1", 1), s.Held("app1", 2))
				}
			})
		}
		t.Run(fmt.Sprintf("split run/batch=%v", batch), func(t *testing.T) {
			var got [2][]string
			for i, deltas := range [][]protocol.UnitHint{
				{h1(1, 2), h1(2, 1), h1(1, 1)}, // unit 1 comes back in a later run
				{h1(1, 2), h1(1, 1), h1(2, 1)},
			} {
				h, _ := setup(t, batch)
				h.send(&protocol.DemandUpdate{App: "app1", Seq: h.seq.Next(), Deltas: deltas})
				h.eng.Run(h.eng.Now() + 100*sim.Millisecond)
				s := h.m1.Scheduler()
				for u := 1; u <= 2; u++ {
					got[i] = append(got[i], fmt.Sprint(s.GrantedCells("app1", u), s.Waiting("app1", u)))
				}
				if s.Held("app1", 1) != 4 || s.Held("app1", 2) != 1 {
					t.Fatalf("deltas %v: held %d/%d, want 4/1", deltas, s.Held("app1", 1), s.Held("app1", 2))
				}
			}
			if batch > 0 && !slices.Equal(got[0], got[1]) {
				t.Fatalf("the split form placed %v, the contiguous form %v", got[0], got[1])
			}
		})
	}
}
