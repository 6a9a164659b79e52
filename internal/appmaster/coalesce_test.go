package appmaster

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// wideWorld is an application master of n units on a 3×4 cluster, with a
// master endpoint that records what it hears and callbacks that record what
// the application is told.
type wideWorld struct {
	eng      *sim.Engine
	net      *transport.Net
	top      *topology.Topology
	am       *AM
	toMaster []transport.Message
	events   []string
}

func newWideWorld(t *testing.T, app string, n int) *wideWorld {
	t.Helper()
	eng := sim.NewEngine(3)
	w := &wideWorld{eng: eng, net: transport.NewNet(eng)}
	top, err := topology.Build(topology.Spec{Racks: 3, MachinesPerRack: 4, MachineCapacity: resource.New(12000, 96*1024)})
	if err != nil {
		t.Fatal(err)
	}
	w.top = top
	w.net.Register(protocol.MasterEndpoint, func(_ transport.EndpointID, m transport.Message) {
		w.toMaster = append(w.toMaster, protocol.Keep(m))
	})
	units := make([]resource.ScheduleUnit, n)
	for i := range units {
		units[i] = resource.ScheduleUnit{ID: i + 1, Priority: 100, MaxCount: 50, Size: resource.New(500, 1024)}
	}
	w.am = New(Config{App: app, Units: units}, eng, w.net, top, cbFuncs{
		Grant:  func(u int, m int32, c int) { w.events = append(w.events, fmt.Sprintf("grant u%d m%d x%d", u, m, c)) },
		Revoke: func(u int, m int32, c int) { w.events = append(w.events, fmt.Sprintf("revoke u%d m%d x%d", u, m, c)) },
	})
	eng.Run(sim.Millisecond)
	w.toMaster = nil
	return w
}

// grant delivers grant updates from the master endpoint back to back and
// lets them land. The network clears each once it has landed, its Changes
// included.
func (w *wideWorld) grant(gus ...*protocol.GrantUpdate) {
	for _, gu := range gus {
		gu.App = w.am.App()
		w.net.SendID(w.net.Endpoint(protocol.MasterEndpoint), w.net.Endpoint(w.am.App()), gu)
	}
	w.eng.Run(w.eng.Now() + sim.Millisecond)
}

// TestOneInstantSendsOneDemandUpdate: what an application master says in one
// instant — several units asked for, one of them twice, a container returned
// in between — reaches FuxiMaster as one DemandUpdate carrying the return and
// the demand, the hints in call order.
func TestOneInstantSendsOneDemandUpdate(t *testing.T) {
	w := newWideWorld(t, "app1", 3)
	w.grant(&protocol.GrantUpdate{Changes: []protocol.UnitDelta{{UnitID: 1, Machine: 0, Delta: 2}}, Seq: 1})
	w.toMaster = nil

	cluster := func(n int) resource.LocalityHint {
		return resource.LocalityHint{Type: resource.LocalityCluster, Count: n}
	}
	onM1 := resource.LocalityHint{Type: resource.LocalityMachine, Node: 1, Count: 1}
	onR1 := resource.LocalityHint{Type: resource.LocalityRack, Node: 1, Count: 1}
	w.am.Request(2, cluster(2))
	w.am.Request(1, onM1)
	w.am.ReturnContainers(1, 0, 1)
	w.am.Request(2, onR1)
	w.am.Request(3, cluster(1))
	w.eng.Run(w.eng.Now() + sim.Millisecond)

	want := []transport.Message{
		protocol.DemandUpdate{App: "app1", Seq: 2,
			Returns: []protocol.ReturnEntry{{UnitID: 1, Machine: 0, Count: 1}},
			Deltas: []protocol.UnitHint{
				{UnitID: 2, LocalityHint: cluster(2)},
				{UnitID: 1, LocalityHint: onM1},
				{UnitID: 2, LocalityHint: onR1},
				{UnitID: 3, LocalityHint: cluster(1)},
			}},
	}
	if !reflect.DeepEqual(w.toMaster, want) {
		t.Fatalf("the master heard\n %+v\nwant\n %+v", w.toMaster, want)
	}
	if du := want[0].(protocol.DemandUpdate); !du.WellFormed() {
		t.Fatal("the instant's DemandUpdate is not well-formed")
	}
}

// TestOneGrantUpdateEqualsPerUnitSplit: a multi-unit GrantUpdate and its
// per-unit split — one message per unit run, delivered back to back — leave
// two application masters with equal ledgers and fire the same callbacks in
// the same order, over a seeded stream of grants, revocations (past what is
// held, too), returns and demand.
func TestOneGrantUpdateEqualsPerUnitSplit(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			ws := [2]*wideWorld{newWideWorld(t, "one", 5), newWideWorld(t, "split", 5)}
			rng := rand.New(rand.NewSource(seed))
			machines := ws[0].top.Size()
			var seqs [2]uint64
			for step := 0; step < 400; step++ {
				switch r := rng.Intn(10); {
				case r < 3:
					u := 1 + rng.Intn(5)
					h := resource.LocalityHint{Type: resource.LocalityCluster, Count: 1 + rng.Intn(4)}
					if rng.Intn(2) == 0 {
						h = resource.LocalityHint{Type: resource.LocalityMachine, Node: int32(rng.Intn(machines)), Count: 1}
					}
					for _, w := range ws {
						w.am.Request(u, h)
					}
				case r < 4:
					u, mc := 1+rng.Intn(5), int32(rng.Intn(machines))
					for _, w := range ws {
						w.am.ReturnContainers(u, mc, 1)
					}
				default:
					var changes []protocol.UnitDelta
					for _, u := range rng.Perm(5)[:1+rng.Intn(5)] {
						for n := 1 + rng.Intn(3); n > 0; n-- {
							d := rng.Intn(6) - 2
							if d >= 0 {
								d++
							}
							changes = append(changes, protocol.UnitDelta{UnitID: u + 1, Machine: int32(rng.Intn(machines)), Delta: d})
						}
					}
					seqs[0]++
					ws[0].grant(&protocol.GrantUpdate{Changes: slices.Clone(changes), Epoch: 1, Seq: seqs[0]})
					var split []*protocol.GrantUpdate
					for rest := changes; len(rest) > 0; {
						var run []protocol.UnitDelta
						run, rest = protocol.NextRun(rest)
						seqs[1]++
						split = append(split, &protocol.GrantUpdate{Changes: run, Epoch: 1, Seq: seqs[1]})
					}
					ws[1].grant(split...)
				}
				for _, w := range ws {
					w.eng.Run(w.eng.Now() + sim.Millisecond)
				}
				if !reflect.DeepEqual(ws[0].events, ws[1].events) {
					t.Fatalf("step %d: callbacks\n one   %v\n split %v", step, ws[0].events, ws[1].events)
				}
				for u := 1; u <= 5; u++ {
					if a, b := ws[0].am.HeldCells(u), ws[1].am.HeldCells(u); !reflect.DeepEqual(a, b) ||
						ws[0].am.Outstanding(u) != ws[1].am.Outstanding(u) {
						t.Fatalf("step %d unit %d: one holds %v waiting %d, split %v waiting %d",
							step, u, a, ws[0].am.Outstanding(u), b, ws[1].am.Outstanding(u))
					}
				}
			}
			if len(ws[0].events) == 0 {
				t.Fatal("the stream fired no callback")
			}
		})
	}
}

// TestMalformedGrantUpdateIsDroppedWhole: a grant update that carries a zero
// delta or names a machine outside the topology changes nothing — not the
// ledger, not a callback, not the epoch gate, not the dedup mark — even where
// a well-formed entry rides beside the bad one. The well-formed update after
// it, at an older epoch and the same sequence number, is applied. An update
// that brings a unit back in a later run is not malformed: it is booked as
// its contiguous form is.
func TestMalformedGrantUpdateIsDroppedWhole(t *testing.T) {
	good := protocol.UnitDelta{UnitID: 1, Machine: 2, Delta: 1}
	t.Run("split run", func(t *testing.T) {
		var got [2][]string
		for i, changes := range [][]protocol.UnitDelta{
			{good, {UnitID: 2, Machine: 3, Delta: 1}, {UnitID: 1, Machine: 4, Delta: 1}},
			{good, {UnitID: 1, Machine: 4, Delta: 1}, {UnitID: 2, Machine: 3, Delta: 1}},
		} {
			w := newWideWorld(t, "app1", 2)
			w.am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 3})
			w.grant(&protocol.GrantUpdate{Changes: slices.Clone(changes), Epoch: 5, Seq: 1})
			for u := 1; u <= 2; u++ {
				got[i] = append(got[i], fmt.Sprint(w.am.HeldCells(u), w.am.Outstanding(u)))
			}
			if w.am.MasterEpoch() != 5 || len(w.events) != 3 {
				t.Fatalf("changes %v: epoch %d, callbacks %v; want 5 and three grants", changes, w.am.MasterEpoch(), w.events)
			}
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("the split form booked %v, the contiguous form %v", got[0], got[1])
		}
	})
	for _, c := range []struct {
		name string
		bad  []protocol.UnitDelta
	}{
		{"zero delta", []protocol.UnitDelta{good, {UnitID: 2, Machine: 3, Delta: 0}}},
		{"machine past the topology", []protocol.UnitDelta{good, {UnitID: 2, Machine: 12, Delta: 1}}},
		{"negative machine", []protocol.UnitDelta{good, {UnitID: 2, Machine: -1, Delta: -1}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := newWideWorld(t, "app1", 2)
			w.am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 3})
			w.grant(&protocol.GrantUpdate{Changes: c.bad, Epoch: 5, Seq: 1})
			if len(w.events) != 0 || w.am.HeldTotal(1) != 0 || w.am.HeldTotal(2) != 0 || w.am.MasterEpoch() != 0 {
				t.Fatalf("after the malformed update: callbacks %v, held %d/%d, epoch %d; want none, 0/0, 0",
					w.events, w.am.HeldTotal(1), w.am.HeldTotal(2), w.am.MasterEpoch())
			}
			w.grant(&protocol.GrantUpdate{Changes: []protocol.UnitDelta{good}, Epoch: 1, Seq: 1})
			if w.am.Held(1, 2) != 1 || w.am.Outstanding(1) != 2 {
				t.Fatalf("the well-formed update after it: held %d, outstanding %d; want 1, 2", w.am.Held(1, 2), w.am.Outstanding(1))
			}
		})
	}
}

// TestGrantOnMachineOutsideTopologyIsDropped is FuzzAMHandle's first
// finding: a grant naming a machine ID outside the topology crashed the
// application master — booking the demand it consumed looked the machine's
// rack up by that ID. The update is dropped whole.
func TestGrantOnMachineOutsideTopologyIsDropped(t *testing.T) {
	w := newWideWorld(t, "app1", 1)
	w.am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 2})
	w.grant(&protocol.GrantUpdate{Changes: []protocol.UnitDelta{{UnitID: 1, Machine: 1 << 20, Delta: 1}}, Seq: 1})
	if w.am.HeldTotal(1) != 0 || w.am.Outstanding(1) != 2 || len(w.events) != 0 {
		t.Fatalf("held %d, outstanding %d, callbacks %v; want 0, 2, none", w.am.HeldTotal(1), w.am.Outstanding(1), w.events)
	}
}

// TestUnregisterSendsAlone: a job that ends with returns and demand of the
// instant still unsent sends FuxiMaster only its UnregisterApp — the master's
// unregister releases everything the job holds and withdraws all it waits
// for — and the pooled update goes back to the network's free list.
func TestUnregisterSendsAlone(t *testing.T) {
	w := newWideWorld(t, "app1", 2)
	w.grant(&protocol.GrantUpdate{Changes: []protocol.UnitDelta{{UnitID: 1, Machine: 0, Delta: 2}}, Seq: 1})
	w.toMaster = nil
	w.am.ReturnContainers(1, 0, 1)
	w.am.Request(2, resource.LocalityHint{Type: resource.LocalityCluster, Count: 3})
	upd := w.am.upd
	w.am.Unregister()
	w.eng.Run(w.eng.Now() + sim.Millisecond)
	if want := []transport.Message{protocol.UnregisterApp{App: "app1", Seq: 2}}; !reflect.DeepEqual(w.toMaster, want) {
		t.Fatalf("the master heard %+v, want %+v", w.toMaster, want)
	}
	if d := transport.Acquire[protocol.DemandUpdate](w.net); d != upd || len(d.Returns) != 0 || len(d.Deltas) != 0 {
		t.Errorf("the pending update was not handed back cleared: drew %p %+v, want %p", d, *d, upd)
	}
}
