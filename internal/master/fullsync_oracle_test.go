package master

import (
	"cmp"
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

// mapSync is a FullDemandSync as it travelled before its payloads became two
// flat unit-sorted lists: the demand view keyed by unit ID, the held view by
// unit and machine ID.
type mapSync struct {
	App, QuotaGroup   string
	Units             []resource.ScheduleUnit
	SeenGrantSeq, Seq uint64
	Demand            map[int][]resource.LocalityHint
	Held              map[int]map[int32]int
}

// asMapSync reads a flat sync into the map shape, each run's hints in their
// wire order.
func asMapSync(t *protocol.FullDemandSync) mapSync {
	out := mapSync{
		App: t.App, QuotaGroup: t.QuotaGroup, Units: t.Units, SeenGrantSeq: t.SeenGrantSeq, Seq: t.Seq,
		Demand: map[int][]resource.LocalityHint{}, Held: map[int]map[int32]int{},
	}
	for _, h := range t.Demand {
		out.Demand[h.UnitID] = append(out.Demand[h.UnitID], h.LocalityHint)
	}
	for _, h := range t.Held {
		if out.Held[h.UnitID] == nil {
			out.Held[h.UnitID] = map[int32]int{}
		}
		out.Held[h.UnitID][h.Machine] = h.Count
	}
	return out
}

// mapHandleFullSync is handleFullSync as it was when the sync carried maps:
// a lookup of the unit's view per registered unit, reconciled through maps.
func (m *Master) mapHandleFullSync(from tr, t mapSync) {
	if !m.sched.Registered(t.App) {
		cfg := AppConfig{Name: t.App, Group: t.QuotaGroup, Units: t.Units}
		if st, err := m.registerApp(from, t.App, t.QuotaGroup, t.Units); err == nil {
			m.ckpt.SaveAppAt(st.ep, cfg)
		} else {
			m.ckpt.SaveApp(cfg)
		}
	}
	st := m.sched.apps[t.App]
	if st == nil {
		return
	}
	stale := st.lastGrantSeq > t.SeenGrantSeq &&
		m.eng.Now()-st.lastGrantAt < syncFenceWindow
	synced := &protocol.FullDemandSync{App: t.App, Seq: t.Seq}
	if !stale {
		m.pendDem = dropSynced(m.pendDem, synced)
		raised := false
		for i := range st.unitArr {
			id := st.unitArr[i].def.ID
			if m.mapReconcileDemand(st, id, t.Demand[id]) {
				raised = true
			}
		}
		if raised && !m.recovering {
			m.dispatch(m.sched.AssignOnAll())
		}
		if !m.recovering {
			var fixes []protocol.UnitDelta
			for i := range st.unitArr {
				id := st.unitArr[i].def.ID
				fixes = append(fixes, m.mapReconcileHeld(st, id, t.Held[id])...)
			}
			if len(fixes) > 0 {
				seq := st.grantSeq.Next()
				st.lastGrantSeq = seq
				st.lastGrantAt = m.eng.Now()
				gu := transport.Acquire[protocol.GrantUpdate](m.net)
				gu.App, gu.Epoch, gu.Seq = st.name, m.epoch, seq
				gu.Changes = append(gu.Changes, fixes...)
				m.net.SendID(m.epID, st.ep, gu)
			}
		}
	}
	for _, ch := range []protocol.Chan{protocol.ChanDem, protocol.ChanUnreg,
		protocol.ChanBad, protocol.ChanReg} {
		if !stale || t.Seq < m.dedup.LastCh(int32(from), ch) {
			m.dedup.ResetToCh(int32(from), ch, t.Seq)
		}
	}
}

type syncTarget struct {
	typ  resource.LocalityType
	node int32
}

// mapReconcileDemand is reconcileDemand as it was: the view summed into a
// map, the tree's nodes probed against it, the leftovers sorted and added.
func (m *Master) mapReconcileDemand(st *appState, unitID int, want []resource.LocalityHint) bool {
	u := st.unit(unitID)
	if u == nil {
		return false
	}
	key := waitKey{app: st.id, unit: u.idx}
	target := map[syncTarget]int{}
	for _, h := range want {
		target[syncTarget{h.Type, h.Node}] += h.Count
	}
	raised := false
	for _, idx := range m.sched.tree.nodesFor(key, nil) {
		n := syncTarget{idx.level, idx.node}
		if tc, ok := target[n]; ok {
			if tc > m.sched.tree.get(key, idx.level, idx.node) {
				raised = true
			}
			m.sched.tree.setCount(key, u.def.Priority, idx.level, idx.node, tc, m.sched.now(), st, u)
			delete(target, n)
		} else {
			m.sched.tree.setCount(key, u.def.Priority, idx.level, idx.node, 0, m.sched.now(), st, u)
		}
	}
	var missing []syncTarget
	for n, c := range target {
		if c > 0 {
			missing = append(missing, n)
		}
	}
	slices.SortFunc(missing, func(a, b syncTarget) int {
		return cmp.Or(cmp.Compare(a.typ, b.typ), cmp.Compare(a.node, b.node))
	})
	for _, n := range missing {
		m.sched.tree.add(key, u.def.Priority, n.typ, n.node, target[n], m.sched.now(), st, u)
		raised = true
	}
	return raised
}

// mapReconcileHeld is reconcileHeld as it was: fixes collected by probing
// the view map per granted cell and the ledger per view entry, then sorted.
// The caller sends every unit's fixes in one GrantUpdate.
func (m *Master) mapReconcileHeld(st *appState, unitID int, appView map[int32]int) []protocol.UnitDelta {
	u := st.unit(unitID)
	if u == nil {
		return nil
	}
	var fixes []protocol.UnitDelta
	for _, c := range u.granted.Cells() {
		if mc := int32(c.Key); appView[mc] != c.Val {
			fixes = append(fixes, protocol.UnitDelta{UnitID: unitID, Machine: mc, Delta: c.Val - appView[mc]})
		}
	}
	for mc, n := range appView {
		if n > 0 && u.granted.Index(uint64(mc)) < 0 {
			fixes = append(fixes, protocol.UnitDelta{UnitID: unitID, Machine: mc, Delta: -n})
		}
	}
	slices.SortFunc(fixes, func(a, b protocol.UnitDelta) int { return cmp.Compare(a.Machine, b.Machine) })
	return fixes
}

// syncApps are the differential test's applications: one unit, three units
// not numbered 1..n, and twelve.
var syncApps = func() []struct {
	name  string
	units []resource.ScheduleUnit
} {
	wide := make([]resource.ScheduleUnit, 12)
	for i := range wide {
		wide[i] = unit(i+1, 40+i*10, 3, 1000, 4096)
	}
	return []struct {
		name  string
		units []resource.ScheduleUnit
	}{
		{"a", []resource.ScheduleUnit{unit(1, 100, 8, 2000, 8192)}},
		{"b", []resource.ScheduleUnit{unit(1, 150, 6, 1000, 2048), unit(2, 80, 5, 3000, 8192), unit(7, 120, 4, 500, 1024)}},
		{"c", wide},
	}
}()

// syncWorld is one master under the differential test's script, reconciling
// full syncs by the shipped path or, legacy, by the map-shaped one.
type syncWorld struct {
	eng    *sim.Engine
	net    *transport.Net
	m      *Master
	legacy bool
	got    []protocol.GrantUpdate // every GrantUpdate the apps received, in order
}

func newSyncWorld(t *testing.T, cfg Config, legacy bool) *syncWorld {
	t.Helper()
	eng := sim.NewEngine(1)
	w := &syncWorld{eng: eng, net: transport.NewNet(eng), legacy: legacy}
	w.m = NewMaster(cfg, eng, w.net, lockservice.New(eng), testTop(t, 3, 4), NewCheckpointStore())
	eng.Run(10 * sim.Millisecond)
	for _, a := range syncApps {
		w.net.Register(a.name, func(_ tr, msg transport.Message) {
			if gu, ok := protocol.Keep(msg).(protocol.GrantUpdate); ok {
				w.got = append(w.got, gu)
			}
		})
		w.net.SendID(w.net.Endpoint(a.name), w.net.Endpoint(protocol.MasterEndpoint), &protocol.RegisterApp{App: a.name, Units: a.units, Seq: 1})
	}
	eng.Run(eng.Now() + 10*sim.Millisecond)
	return w
}

func (w *syncWorld) sync(app string, s protocol.FullDemandSync) {
	from := w.net.Endpoint(app)
	if w.legacy {
		w.m.mapHandleFullSync(from, asMapSync(&s))
	} else {
		w.m.handle(from, &s)
	}
}

// TestFullSyncMatchesMapOracle drives the shipped full-sync reconciliation
// and the map-shaped one it replaced through the same seeded script — demand
// updates (withdrawals, machine IDs outside the topology, units the app never
// defined), returns, machine deaths and recoveries that revoke, and full
// syncs whose views disagree with the master's every way a lossy network can
// make them (grants missing or phantom, wrong counts, demand dropped,
// changed, split across repeated targets and summed again, or added, runs of
// unknown units, stale SeenGrantSeq) — with and without batched rounds. One
// sync in four is one no application master sends: its runs out of
// (level, node) order, a target twice or outside the topology. The shipped
// master drops such a sync whole, so the oracle is not given it. Every
// GrantUpdate the applications receive must match, order included, and after
// every step so must each unit's grants, queued demand and held count.
func TestFullSyncMatchesMapOracle(t *testing.T) {
	for _, batch := range []sim.Time{0, 20 * sim.Millisecond} {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("batch=%v/seed=%d", batch, seed), func(t *testing.T) {
				fullSyncMatchesMapOracle(t, seed, batch)
			})
		}
	}
}

func fullSyncMatchesMapOracle(t *testing.T, seed int64, batch sim.Time) {
	cfg := Config{ProcessName: "fm-1"}
	cfg.BatchWindow = batch
	ws := [2]*syncWorld{newSyncWorld(t, cfg, false), newSyncWorld(t, cfg, true)}
	rng := rand.New(rand.NewSource(seed))
	top := ws[0].m.top
	machines, racks := top.Machines(), top.NumRacks()
	type appView struct {
		seq  protocol.Sequencer
		held map[int]map[int32]int // what the app believes it holds
		seen uint64                // the last grant sequence it saw
	}
	views := make([]appView, len(syncApps))
	index := map[string]int{}
	for i, a := range syncApps {
		views[i].seq.Next() // the registration
		views[i].held = map[int]map[int32]int{}
		index[a.name] = i
	}
	target := func() resource.LocalityHint {
		switch rng.Intn(7) {
		case 0, 1, 2:
			return resource.LocalityHint{Type: resource.LocalityMachine, Node: int32(rng.Intn(len(machines)))}
		case 3:
			return resource.LocalityHint{Type: resource.LocalityRack, Node: int32(rng.Intn(racks))}
		case 4:
			return resource.LocalityHint{Type: resource.LocalityMachine, Node: int32(len(machines) + 5*rng.Intn(2))}
		}
		return resource.LocalityHint{Type: resource.LocalityCluster}
	}
	seen := 0                // grant updates compared so far
	applied, dropped := 0, 0 // syncs the shipped master took and refused
	for step := 0; step < 300; step++ {
		ai := rng.Intn(len(syncApps))
		a, v := syncApps[ai], &views[ai]
		unitID := a.units[rng.Intn(len(a.units))].ID
		switch r := rng.Intn(100); {
		case r < 35:
			if rng.Intn(8) == 0 {
				unitID = 99
			}
			hints := make([]resource.LocalityHint, 1+rng.Intn(3))
			for i := range hints {
				hints[i] = target()
				if hints[i].Count = rng.Intn(6) - 2; hints[i].Count >= 0 {
					hints[i].Count++ // a zero count makes the update malformed
				}
			}
			msg := &protocol.DemandUpdate{App: a.name, Deltas: unitHints(unitID, hints...), Seq: v.seq.Next()}
			for _, w := range ws {
				w.net.SendID(w.net.Endpoint(a.name), w.net.Endpoint(protocol.MasterEndpoint), twin(msg))
			}
		case r < 55:
			held := v.held[unitID]
			if len(held) == 0 {
				break
			}
			ms := make([]int32, 0, len(held))
			for mc := range held {
				ms = append(ms, mc)
			}
			slices.Sort(ms)
			mc := ms[rng.Intn(len(ms))]
			k := 1 + rng.Intn(held[mc])
			if held[mc] -= k; held[mc] == 0 {
				delete(held, mc)
			}
			msg := &protocol.DemandUpdate{App: a.name, Returns: []protocol.ReturnEntry{{UnitID: unitID, Machine: mc, Count: k}}, Seq: v.seq.Next()}
			for _, w := range ws {
				w.net.SendID(w.net.Endpoint(a.name), w.net.Endpoint(protocol.MasterEndpoint), twin(msg))
			}
		case r < 65:
			mc := int32(rng.Intn(len(machines)))
			for _, w := range ws {
				if w.m.sched.downID(mc) {
					w.m.dispatch(w.m.sched.machineUpID(mc))
				} else {
					w.m.dispatch(w.m.sched.machineDownID(mc))
				}
			}
		default:
			s := protocol.FullDemandSync{App: a.name, Units: a.units, SeenGrantSeq: v.seen, Seq: v.seq.Current()}
			if rng.Intn(6) == 0 && s.SeenGrantSeq > 0 {
				s.SeenGrantSeq-- // a grant the app has not seen yet: stale inside the fence window
			}
			ids := make([]int, 0, len(a.units)+2)
			for _, u := range a.units {
				ids = append(ids, u.ID)
			}
			if rng.Intn(4) == 0 {
				ids = append(ids, 0, 99) // runs of units the app never registered
			}
			slices.Sort(ids)
			foreign := rng.Intn(4) == 0 // a sync no application master sends
			for _, id := range ids {
				var run []resource.LocalityHint
				for _, h := range ws[0].m.sched.WaitingNodes(a.name, id) {
					switch rng.Intn(6) {
					case 0: // lost
					case 1:
						h.Count = rng.Intn(5)
						run = append(run, h)
					case 2: // the same target twice: the views sum
						c := rng.Intn(h.Count + 1)
						h2 := h
						h.Count, h2.Count = c, h.Count-c
						run = append(run, h, h2)
					default:
						run = append(run, h)
					}
				}
				for n := rng.Intn(3); n > 0; n-- {
					h := target()
					h.Count = rng.Intn(4)
					run = append(run, h)
				}
				rng.Shuffle(len(run), func(i, j int) { run[i], run[j] = run[j], run[i] })
				if !foreign {
					run = wireOrder(top, run)
				}
				for _, h := range run {
					s.Demand = append(s.Demand, protocol.UnitHint{UnitID: id, LocalityHint: h})
				}
				held := map[int32]int{}
				for mc, n := range v.held[id] {
					switch rng.Intn(8) {
					case 0: // missing from the view
					case 1:
						held[mc] = max(0, n+rng.Intn(3)-1)
					default:
						held[mc] = n
					}
				}
				if rng.Intn(6) == 0 {
					held[int32(rng.Intn(len(machines)))] = 1 + rng.Intn(2) // phantom (or recounted)
				}
				ms := make([]int32, 0, len(held))
				for mc := range held {
					ms = append(ms, mc)
				}
				slices.Sort(ms)
				for _, mc := range ms {
					s.Held = append(s.Held, protocol.SyncHeld{UnitID: id, Machine: mc, Count: held[mc]})
				}
			}
			ok := s.WellFormed() && holdsAll(top, s.Demand)
			if !foreign && !ok {
				t.Fatalf("step %d: the script built a malformed sync %+v", step, s)
			}
			ws[0].sync(a.name, s)
			if ok {
				ws[1].sync(a.name, s)
				applied++
			} else {
				dropped++
			}
		}
		d := sim.Time(1+rng.Intn(150)) * sim.Millisecond
		for _, w := range ws {
			w.eng.Run(w.eng.Now() + d)
		}

		if len(ws[0].got) != len(ws[1].got) {
			t.Fatalf("step %d: %d grant updates, map oracle %d", step, len(ws[0].got), len(ws[1].got))
		}
		for i := seen; i < len(ws[0].got); i++ {
			gu := ws[0].got[i]
			if !reflect.DeepEqual(gu, ws[1].got[i]) {
				t.Fatalf("step %d: grant update %d\n shipped %+v\n oracle  %+v", step, i, gu, ws[1].got[i])
			}
			// The app books what it is told, as the application master does.
			v := &views[index[gu.App]]
			v.seen = max(v.seen, gu.Seq)
			for _, ch := range gu.Changes {
				held := v.held[ch.UnitID]
				if held == nil {
					held = map[int32]int{}
					v.held[ch.UnitID] = held
				}
				if held[ch.Machine] = max(0, held[ch.Machine]+ch.Delta); held[ch.Machine] == 0 {
					delete(held, ch.Machine)
				}
			}
		}
		seen = len(ws[0].got)
		for _, a := range syncApps {
			for _, u := range a.units {
				s0, s1 := ws[0].m.sched, ws[1].m.sched
				if !slices.Equal(s0.GrantedCells(a.name, u.ID), s1.GrantedCells(a.name, u.ID)) ||
					!reflect.DeepEqual(s0.WaitingNodes(a.name, u.ID), s1.WaitingNodes(a.name, u.ID)) ||
					s0.Held(a.name, u.ID) != s1.Held(a.name, u.ID) {
					t.Fatalf("step %d: %s unit %d diverged\n shipped grants %v waiting %v\n oracle  grants %v waiting %v",
						step, a.name, u.ID, s0.GrantedCells(a.name, u.ID), s0.WaitingNodes(a.name, u.ID),
						s1.GrantedCells(a.name, u.ID), s1.WaitingNodes(a.name, u.ID))
				}
			}
		}
		for i, w := range ws {
			if bad := w.m.sched.CheckAllInvariants(); len(bad) > 0 {
				t.Fatalf("step %d: world %d invariants: %v", step, i, bad)
			}
		}
	}
	if seen == 0 || applied == 0 || dropped == 0 {
		t.Fatalf("vacuous script: %d grant updates, %d syncs applied, %d dropped", seen, applied, dropped)
	}
}

// wireOrder is a sync run as an application master sends it: strictly
// ascending by (level, node), a repeated target's counts summed, and only
// nodes the topology holds.
func wireOrder(top *topology.Topology, run []resource.LocalityHint) []resource.LocalityHint {
	slices.SortStableFunc(run, resource.CompareHints)
	out := run[:0]
	for _, h := range run {
		switch {
		case !top.Holds(h.Type, h.Node):
		case len(out) > 0 && resource.CompareHints(out[len(out)-1], h) == 0:
			out[len(out)-1].Count += h.Count
		default:
			out = append(out, h)
		}
	}
	return out
}
