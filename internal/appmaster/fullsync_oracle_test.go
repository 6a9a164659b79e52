package appmaster

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/lockservice"
	"repro/internal/master"
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

// mapFullSync is AM.fullSync as it was before the flat wire shape, returning
// the message it would have sent.
func (a *AM) mapFullSync() mapSync {
	a.flush()
	demand := make(map[int][]resource.LocalityHint, len(a.units))
	heldCopy := make(map[int]map[int32]int, len(a.cfg.Units))
	for ui := range a.units {
		l, unitID := &a.units[ui], a.cfg.Units[ui].ID
		if cells := l.out.Cells(); len(cells) > 0 {
			hints := make([]resource.LocalityHint, 0, len(cells))
			for _, c := range cells {
				hints = append(hints, keyHint(c.Key, c.Val))
			}
			resource.SortHints(hints)
			demand[unitID] = hints
		}
		if cells := l.held.Cells(); len(cells) > 0 {
			mc := make(map[int32]int, len(cells))
			for _, c := range cells {
				mc[int32(c.Key)] = c.Val
			}
			heldCopy[unitID] = mc
		}
	}
	return mapSync{
		App: a.cfg.App, QuotaGroup: a.cfg.QuotaGroup, Units: a.cfg.Units,
		Demand: demand, Held: heldCopy, Seq: a.seq.Current(),
		SeenGrantSeq: a.dedup.LastCh(int32(a.masterID), protocol.ChanGrant),
	}
}

// asMapSync reads a flat sync back into the map shape.
func asMapSync(fs protocol.FullDemandSync) mapSync {
	out := mapSync{
		App: fs.App, QuotaGroup: fs.QuotaGroup, Units: fs.Units, SeenGrantSeq: fs.SeenGrantSeq, Seq: fs.Seq,
		Demand: map[int][]resource.LocalityHint{}, Held: map[int]map[int32]int{},
	}
	for _, h := range fs.Demand {
		out.Demand[h.UnitID] = append(out.Demand[h.UnitID], h.LocalityHint)
	}
	for _, h := range fs.Held {
		if out.Held[h.UnitID] == nil {
			out.Held[h.UnitID] = map[int32]int{}
		}
		out.Held[h.UnitID][h.Machine] = h.Count
	}
	return out
}

// TestFullSyncMatchesMapShape drives an AM through a seeded stream — demand
// stated and withdrawn at machine, rack and cluster level (IDs past the
// topology's range included: the AM books them like any other, and only
// FuxiMaster refuses them), grants, revocations and returns — and at random
// points has it send the flat sync right after computing the map-shaped one it
// replaced: read back, the two carry the same views, and the flat one is
// well-formed with every demand run strictly in (level, node) order. Jobs one, three
// and forty units wide, and one that defines its units out of ID order.
func TestFullSyncMatchesMapShape(t *testing.T) {
	unit := func(id int) resource.ScheduleUnit {
		return resource.ScheduleUnit{ID: id, Priority: 100, MaxCount: 50, Size: resource.New(250, 512)}
	}
	wide := make([]resource.ScheduleUnit, 40)
	for i := range wide {
		wide[i] = unit(i + 1)
	}
	for _, c := range []struct {
		name  string
		units []resource.ScheduleUnit
	}{
		{"one", []resource.ScheduleUnit{unit(1)}},
		{"three", []resource.ScheduleUnit{unit(1), unit(2), unit(7)}},
		{"three-unordered", []resource.ScheduleUnit{unit(7), unit(1), unit(2)}},
		{"forty", wide},
	} {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				fullSyncMatchesMapShape(t, seed, c.units)
			}
		})
	}
}

func fullSyncMatchesMapShape(t *testing.T, seed int64, units []resource.ScheduleUnit) {
	eng := sim.NewEngine(seed)
	net := transport.NewNet(eng)
	top, err := topology.Build(topology.Spec{Racks: 3, MachinesPerRack: 4, MachineCapacity: resource.New(12000, 96*1024)})
	if err != nil {
		t.Fatal(err)
	}
	var got []protocol.FullDemandSync
	net.Register(protocol.MasterEndpoint, func(_ transport.EndpointID, m transport.Message) {
		if fs, ok := protocol.Keep(m).(protocol.FullDemandSync); ok {
			got = append(got, fs)
		}
	})
	am := New(Config{App: "app1", Units: units}, eng, net, top, nil)
	rng := rand.New(rand.NewSource(seed))
	machines, racks := top.Machines(), top.NumRacks()
	target := func() resource.LocalityHint {
		switch rng.Intn(7) {
		case 0, 1, 2:
			return resource.LocalityHint{Type: resource.LocalityMachine, Node: int32(rng.Intn(len(machines)))}
		case 3:
			return resource.LocalityHint{Type: resource.LocalityRack, Node: int32(rng.Intn(racks))}
		case 4:
			return resource.LocalityHint{Type: resource.LocalityMachine, Node: int32(len(machines) + rng.Intn(3))}
		case 5:
			return resource.LocalityHint{Type: resource.LocalityRack, Node: int32(racks)}
		}
		return resource.LocalityHint{Type: resource.LocalityCluster}
	}
	for op := 0; op < 1500; op++ {
		u := units[rng.Intn(len(units))].ID
		switch r := rng.Intn(10); {
		case r < 4:
			hints := make([]resource.LocalityHint, 1+rng.Intn(3))
			for i := range hints {
				hints[i] = target()
				hints[i].Count = rng.Intn(8) - 2
			}
			am.Request(u, hints...)
		case r < 7:
			am.applyGrant(&protocol.GrantUpdate{Changes: []protocol.UnitDelta{
				{UnitID: u, Machine: int32(rng.Intn(len(machines))), Delta: rng.Intn(6) - 2},
			}})
		case r < 8:
			mc := int32(rng.Intn(len(machines)))
			am.ReturnContainers(u, mc, 1+rng.Intn(2))
		default:
			want := am.mapFullSync()
			am.fullSync()
			eng.Run(eng.Now() + sim.Millisecond)
			fs := got[len(got)-1]
			if !fs.WellFormed() {
				t.Fatalf("seed %d op %d: sync not well-formed: %+v", seed, op, fs)
			}
			for i := 1; i < len(fs.Demand); i++ {
				if a, b := fs.Demand[i-1], fs.Demand[i]; a.UnitID == b.UnitID && resource.CompareHints(a.LocalityHint, b.LocalityHint) >= 0 {
					t.Fatalf("seed %d op %d: demand run out of (level, node) order: %+v then %+v", seed, op, a, b)
				}
			}
			if back := asMapSync(fs); !reflect.DeepEqual(back, want) {
				t.Fatalf("seed %d op %d: flat sync reads back as\n %+v\nmap-shaped sync was\n %+v", seed, op, back, want)
			}
		}
		eng.Run(eng.Now() + sim.Millisecond)
	}
	if len(got) == 0 {
		t.Fatal("no sync compared")
	}
}

// TestFullSyncAllocatesNothing is the anti-entropy path's share of "a delta
// costs O(delta)": once warm, a forty-unit application master sending its
// full sync, and the primary reconciling every unit of it, allocate nothing —
// the message is recycled with its payloads, and the master merges it against
// its own sorted ledgers without building a map.
func TestFullSyncAllocatesNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	net := transport.NewNet(eng)
	top, err := topology.Build(topology.Spec{Racks: 4, MachinesPerRack: 10, MachineCapacity: resource.New(12000, 96*1024)})
	if err != nil {
		t.Fatal(err)
	}
	fm := master.NewMaster(master.Config{ProcessName: "fm-1"}, eng, net, lockservice.New(eng), top, master.NewCheckpointStore())
	units := make([]resource.ScheduleUnit, 40)
	for i := range units {
		units[i] = resource.ScheduleUnit{ID: i + 1, Priority: 100, MaxCount: 2, Size: resource.New(1000, 2048)}
	}
	eng.Run(10 * sim.Millisecond)
	am := New(Config{App: "app-0", Units: units}, eng, net, top, nil)
	eng.Run(eng.Now() + 10*sim.Millisecond)
	for i, u := range units {
		am.Request(u.ID,
			resource.LocalityHint{Type: resource.LocalityMachine, Node: int32(i), Count: 1},
			resource.LocalityHint{Type: resource.LocalityCluster, Count: 3})
	}
	eng.Run(eng.Now() + 100*sim.Millisecond)
	if am.HeldTotal(1) != 2 || am.Outstanding(1) == 0 {
		t.Fatalf("setup: unit 1 holds %d with %d outstanding, want 2 held and demand left", am.HeldTotal(1), am.Outstanding(1))
	}
	step := func() {
		am.fullSync()
		eng.Run(eng.Now() + sim.Millisecond)
	}
	for i := 0; i < 20000; i++ { // twice round the engine's calendar ring (see the agent's gate)
		step()
	}
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Fatalf("full sync send and reconcile allocate %v times, want 0", n)
	}
	// The sync was reconciled, not skipped: the master's view is the app's.
	s := fm.Scheduler()
	for _, u := range units {
		if !slices.Equal(s.GrantedCells("app-0", u.ID), am.HeldCells(u.ID)) || s.Waiting("app-0", u.ID) != am.Outstanding(u.ID) {
			t.Fatalf("unit %d: master grants %v waiting %d, app holds %v outstanding %d", u.ID,
				s.GrantedCells("app-0", u.ID), s.Waiting("app-0", u.ID), am.HeldCells(u.ID), am.Outstanding(u.ID))
		}
	}
}
