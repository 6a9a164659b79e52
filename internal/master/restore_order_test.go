package master

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/lockservice"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/transport"
)

// restoreOutcome is what a promoted master made of the agents' anchors: its
// grant index (each machine's cells in a canonical order — the index itself
// keeps them in no particular order), every unit's ledger, the full audit,
// and the decisions it took next.
type restoreOutcome struct {
	cells   [][]grantCell
	raw     [][]grantCell // the index as it lies
	ledgers []string
	audit   []string
	next    []string
}

// restoreFromAnchors grants a few two-unit apps across a small cluster on one
// primary, crashes it, and restores the standby from one anchor beat per
// machine carrying that machine's grants, each table permuted by a stream
// seeded with shuffle (0 leaves the tables in the crashed primary's order).
// Then the apps return and demand more, and the outcome is read.
func restoreFromAnchors(t *testing.T, shuffle int64) restoreOutcome {
	t.Helper()
	eng := sim.NewEngine(9)
	net := transport.NewNet(eng)
	lock := lockservice.New(eng)
	ckpt := NewCheckpointStore()
	top := testTop(t, 2, 3)
	m1 := NewMaster(Config{ProcessName: "fm-1"}, eng, net, lock, top, ckpt)
	m2 := NewMaster(Config{ProcessName: "fm-2"}, eng, net, lock, top, ckpt)

	var out restoreOutcome
	recording := false
	for _, mc := range top.Machines() {
		net.Register(protocol.AgentEndpoint(mc), func(_ transport.EndpointID, msg transport.Message) {
			if d, ok := msg.(*protocol.CapacityDelta); ok && recording {
				for _, e := range d.Entries {
					out.next = append(out.next, fmt.Sprintf("cap %s %s/%d %+d", mc, net.Name(transport.EndpointID(e.App)), e.UnitID, e.Count))
				}
			}
		})
	}
	apps := []string{"app-m", "app-c", "app-x"}
	seqs := make([]protocol.Sequencer, len(apps))
	for _, app := range apps {
		net.Register(app, func(_ transport.EndpointID, msg transport.Message) {
			if g, ok := msg.(*protocol.GrantUpdate); ok && recording {
				out.next = append(out.next, fmt.Sprintf("grant %s %v", g.App, g.Changes))
			}
		})
	}
	send := func(i int, msg transport.Message) {
		net.SendID(net.Endpoint(apps[i]), net.Endpoint(protocol.MasterEndpoint), msg)
		eng.Run(eng.Now() + 10*sim.Millisecond)
	}
	demand := func(i, unit, count int) {
		send(i, &protocol.DemandUpdate{App: apps[i], Seq: seqs[i].Next(),
			Deltas: unitHints(unit, resource.LocalityHint{Type: resource.LocalityCluster, Count: count})})
	}
	eng.Run(10 * sim.Millisecond)
	for i, app := range apps {
		send(i, &protocol.RegisterApp{App: app, Seq: seqs[i].Next(), Units: []resource.ScheduleUnit{
			unit(1, 10+i, 20, 1000, 2048), unit(2, 20-i, 20, 500, 1024),
		}})
		demand(i, 1, 6+i)
		demand(i, 2, 5)
	}

	// The anchors: each machine's grants as its agent's ledger holds them.
	s1 := m1.Scheduler()
	anchors := make([][]protocol.AllocDelta, top.Size())
	for mc := range anchors {
		s1.ForEachGrantOn(int32(mc), func(app string, unitID, count int) {
			anchors[mc] = append(anchors[mc], protocol.AllocDelta{App: int32(net.Endpoint(app)), UnitID: unitID, Count: count})
		})
	}
	if slices.IndexFunc(anchors, func(a []protocol.AllocDelta) bool { return len(a) >= 3 }) < 0 {
		t.Fatalf("setup: no machine holds three cells to permute: %v", anchors)
	}
	rng := rand.New(rand.NewSource(shuffle))
	beat := func(mc int, full bool) {
		hb := &protocol.AgentHeartbeat{Machine: int32(mc), HealthScore: 100, Full: full}
		if full {
			hb.Allocations = slices.Clone(anchors[mc])
			if shuffle != 0 {
				rng.Shuffle(len(hb.Allocations), func(i, j int) {
					hb.Allocations[i], hb.Allocations[j] = hb.Allocations[j], hb.Allocations[i]
				})
			}
		}
		net.SendID(net.Endpoint(protocol.AgentEndpoint(top.Machines()[mc])), net.Endpoint(protocol.MasterEndpoint), hb)
	}

	m1.Crash()
	for m2.Epoch() != 2 {
		if eng.Now() > 10*sim.Second {
			t.Fatal("standby never promoted")
		}
		eng.Run(eng.Now() + 100*sim.Microsecond)
	}
	for mc := range anchors {
		beat(mc, true)
	}
	// Past the recovery window, with every agent beating as a live one does.
	for end := eng.Now() + 3*sim.Second; eng.Now() < end; {
		eng.Run(eng.Now() + 500*sim.Millisecond)
		for mc := range anchors {
			beat(mc, false)
		}
	}
	eng.Run(eng.Now() + 10*sim.Millisecond)

	recording = true
	send(0, &protocol.DemandUpdate{App: apps[0], Seq: seqs[0].Next(), Returns: []protocol.ReturnEntry{
		{UnitID: 1, Machine: top.MachineID(topMachineOf(t, m2, apps[0], 1)), Count: 1},
	}})
	demand(1, 2, 4)
	demand(2, 1, 3)

	s := m2.Scheduler()
	if s == nil {
		t.Fatal("no primary after the recovery window")
	}
	out.cells = make([][]grantCell, top.Size())
	out.raw = make([][]grantCell, top.Size())
	for mc, cells := range s.grants.cells {
		out.raw[mc] = slices.Clone(cells)
		out.cells[mc] = slices.Clone(cells)
		sort.Slice(out.cells[mc], func(i, j int) bool {
			a, b := out.cells[mc][i], out.cells[mc][j]
			return a.app < b.app || a.app == b.app && a.unit < b.unit
		})
	}
	for _, app := range apps {
		for u := 1; u <= 2; u++ {
			for _, c := range s.GrantedCells(app, u) {
				out.ledgers = append(out.ledgers, fmt.Sprintf("%s/%d@%d=%d", app, u, c.Key, c.Val))
			}
		}
	}
	out.audit = s.CheckAllInvariants()
	return out
}

// topMachineOf is the first machine, in name order, on which app holds unit.
func topMachineOf(t *testing.T, m *Master, app string, unitID int) string {
	t.Helper()
	var names []string
	for mc := range m.Scheduler().Granted(app, unitID) {
		names = append(names, mc)
	}
	if len(names) == 0 {
		t.Fatalf("%s unit %d holds nothing after the restore", app, unitID)
	}
	sort.Strings(names)
	return names[0]
}

// TestAnchorRestoreIsOrderFree is what lets an agent send its allocation
// table in ledger order: a recovering master restores each anchor entry on
// its own, so the same anchors in any order rebuild the same grant index,
// ledgers and audit, and lead to the same next decisions.
func TestAnchorRestoreIsOrderFree(t *testing.T) {
	want := restoreFromAnchors(t, 0)
	if len(want.audit) > 0 {
		t.Fatalf("restore in the primary's order fails the audit: %v", want.audit)
	}
	if len(want.ledgers) == 0 || len(want.next) == 0 {
		t.Fatalf("nothing restored (%d ledger cells) or nothing decided next (%d)", len(want.ledgers), len(want.next))
	}
	permuted := false
	for seed := int64(1); seed <= 6; seed++ {
		got := restoreFromAnchors(t, seed)
		permuted = permuted || !reflect.DeepEqual(got.raw, want.raw)
		if !reflect.DeepEqual(got.cells, want.cells) {
			t.Errorf("shuffle %d: grant index %v, want %v", seed, got.cells, want.cells)
		}
		if !reflect.DeepEqual(got.ledgers, want.ledgers) {
			t.Errorf("shuffle %d: ledgers %v, want %v", seed, got.ledgers, want.ledgers)
		}
		if !reflect.DeepEqual(got.audit, want.audit) {
			t.Errorf("shuffle %d: audit %v, want %v", seed, got.audit, want.audit)
		}
		if !reflect.DeepEqual(got.next, want.next) {
			t.Errorf("shuffle %d: next decisions\n %v\nwant\n %v", seed, got.next, want.next)
		}
	}
	if !permuted {
		t.Error("no shuffle reordered the restored grant index: the anchors were not permuted")
	}
}
