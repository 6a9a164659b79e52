package master

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/transport"
)

// The all-apps scans the machine-major index replaced, kept as the reference
// the index's per-machine answers are compared against — content and order.
// They read only the unit-major ledgers.

// scanGrantsOn lists machine's grants in (app name, unit index) order; apps
// is s.Apps(), the sorted names the replaced scans kept incrementally. The
// entries identify each app the way the wire does, by endpoint ID, so the
// caller gives its apps distinct ones.
func scanGrantsOn(s *Scheduler, apps []string, machine int32) []protocol.CapacityEntry {
	var out []protocol.CapacityEntry
	for _, app := range apps {
		st := s.apps[app]
		for i := range st.unitArr {
			u := &st.unitArr[i]
			if n := u.granted.Get(uint64(machine)); n > 0 {
				out = append(out, protocol.CapacityEntry{App: int32(st.ep), UnitID: u.def.ID, Size: u.def.Size, Count: n})
			}
		}
	}
	return out
}

// scanEvacuation is the revocation stream evacuate(machine, reason) must emit.
func scanEvacuation(s *Scheduler, apps []string, machine int32, reason Reason) []Decision {
	var out []Decision
	for _, app := range apps {
		st := s.apps[app]
		for i := range st.unitArr {
			u := &st.unitArr[i]
			if n := u.granted.Get(uint64(machine)); n > 0 {
				out = append(out, Decision{App: app, AppID: st.id, UnitID: u.def.ID, Machine: s.top.MachineName(machine),
					MachineID: machine, Delta: -n, Reason: reason})
			}
		}
	}
	return out
}

// revocations filters a decision stream down to its revocations on machine.
func revocations(ds []Decision, machine int32) []Decision {
	var out []Decision
	for _, d := range ds {
		if d.Delta < 0 && d.MachineID == machine {
			out = append(out, d)
		}
	}
	return out
}

// TestGrantIndexMatchesScanOracle drives random grant / release / restore /
// unregister / blacklist / machine-down / machine-up sequences and checks,
// at every step, that the index answers each per-machine question exactly as
// the all-apps scan did: evacuation streams and capacity-sync tables equal
// the oracle's including order, and CheckInvariants (which asserts index ≡
// transpose of the ledgers) stays silent.
func TestGrantIndexMatchesScanOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		top := testTop(t, 3, 4)
		s := NewScheduler(top, Options{})
		machines := top.Machines()
		// Names chosen so registration (= dense ID) order differs from name
		// order, and more apps than a machine's first index chunk holds.
		var apps []string
		for i := 0; i < 24; i++ {
			apps = append(apps, fmt.Sprintf("app-%02d", (i*7)%24))
		}
		registered := map[string]bool{}
		register := func(app string) {
			units := []resource.ScheduleUnit{
				{ID: 7, Priority: 10, MaxCount: 30, Size: resource.New(250, 512)},
				{ID: 3, Priority: 20, MaxCount: 30, Size: resource.New(500, 1024)},
			}
			if err := s.RegisterApp(app, "", units); err != nil {
				t.Fatal(err)
			}
			// What Master.registerApp does: a wire identity per app, in an
			// order unrelated to the names'.
			var n int
			fmt.Sscanf(app, "app-%d", &n)
			s.apps[app].ep = transport.EndpointID(5000 + n*5%24)
			registered[app] = true
		}
		for _, a := range apps {
			register(a)
		}
		for step := 0; step < 600; step++ {
			app := apps[rng.Intn(len(apps))]
			unitID := []int{3, 7}[rng.Intn(2)]
			mi := int32(rng.Intn(len(machines)))
			m := machines[mi]
			switch op := rng.Intn(12); {
			case op < 5: // grant
				if !registered[app] {
					register(app)
				}
				h := resource.LocalityHint{Type: resource.LocalityCluster, Count: 1 + rng.Intn(6)}
				if rng.Intn(2) == 0 {
					h = resource.LocalityHint{Type: resource.LocalityMachine, Node: int32(mi), Count: 1 + rng.Intn(3)}
				}
				if _, err := s.UpdateDemand(app, unitID, []resource.LocalityHint{h}); err != nil {
					t.Fatal(err)
				}
			case op < 7: // release part of a holding
				for gm, n := range s.Granted(app, unitID) {
					if _, err := s.Return(app, unitID, gm, 1+rng.Intn(n)); err != nil {
						t.Fatal(err)
					}
					break
				}
			case op < 8: // restore (a recovering master replaying an agent report)
				if registered[app] && !s.Down(m) && s.free[mi].FitCount(resource.New(500, 1024)) > 0 &&
					s.Held(app, unitID) < 30 {
					s.RestoreGrant(app, unitID, m, 1)
				}
			case op < 9: // unregister
				if registered[app] {
					s.UnregisterApp(app)
					registered[app] = false
				}
			case op < 10: // blacklist with revocation, or rehabilitate
				if s.Blacklisted(m) {
					s.SetBlacklisted(m, false, false)
					break
				}
				want := scanEvacuation(s, s.Apps(), mi, ReasonRevokeBlacklist)
				if got := s.SetBlacklisted(m, true, true); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: blacklist evacuation\n got %v\nwant %v", seed, step, got, want)
				}
			default: // machine down / up
				if s.Down(m) {
					s.MachineUp(m)
					break
				}
				want := scanEvacuation(s, s.Apps(), mi, ReasonRevokeNodeDown)
				if got := revocations(s.MachineDown(m), mi); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: machine-down evacuation\n got %v\nwant %v", seed, step, got, want)
				}
			}
			if bad := s.CheckInvariants(); len(bad) > 0 {
				t.Fatalf("seed %d step %d: %v", seed, step, bad)
			}
			probe := int32(rng.Intn(len(machines)))
			if got, want := s.capacityTable(probe), scanGrantsOn(s, s.Apps(), probe); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: capacity table of %s\n got %v\nwant %v", seed, step, machines[probe], got, want)
			}
		}
	}
}

// TestCheckInvariantsCatchesCorruptIndex corrupts the index three ways —
// a wrong count, a dropped cell, a cell the ledger never had — and expects
// the index ≡ ledger assertion inside the audit to fire on each. The writes
// go behind the scheduler's back (no mark), so the audit is asked for
// everything.
func TestCheckInvariantsCatchesCorruptIndex(t *testing.T) {
	build := func() (*Scheduler, int32) {
		s := NewScheduler(testTop(t, 2, 2), Options{})
		for _, app := range []string{"a", "b"} {
			if err := s.RegisterApp(app, "", []resource.ScheduleUnit{
				{ID: 1, Priority: 10, MaxCount: 8, Size: resource.New(1000, 2048)}}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.UpdateDemand(app, 1, []resource.LocalityHint{
				{Type: resource.LocalityCluster, Count: 8}}); err != nil {
				t.Fatal(err)
			}
		}
		if bad := s.CheckInvariants(); len(bad) > 0 {
			t.Fatalf("setup: %v", bad)
		}
		for m := int32(0); m < s.nMach; m++ {
			if len(s.grants.cells[m]) >= 2 {
				return s, m
			}
		}
		t.Fatal("setup: no machine holds two cells")
		return nil, 0
	}
	for _, tc := range []struct {
		name    string
		corrupt func(s *Scheduler, m int32)
	}{
		{"wrong count", func(s *Scheduler, m int32) { s.grants.cells[m][0].n++ }},
		{"dropped cell", func(s *Scheduler, m int32) { s.grants.cells[m] = s.grants.cells[m][1:] }},
		{"phantom cell", func(s *Scheduler, m int32) {
			other := (m + 1) % s.nMach
			s.grants.cells[other] = append(s.grants.cells[other], grantCell{app: 0, unit: 0, n: 99})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, m := build()
			tc.corrupt(s, m)
			bad := strings.Join(s.CheckAllInvariants(), "\n")
			if !strings.Contains(bad, "index: ") {
				t.Errorf("corrupt index not reported: %q", bad)
			}
		})
	}
}

// TestGrantIndexAllocations: the index costs a scheduler two allocations
// however many machines it covers, and reading it allocates nothing.
func TestGrantIndexAllocations(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { newGrantIndex(5000) }); n != 2 {
		t.Errorf("newGrantIndex(5000) allocates %v times, want 2", n)
	}
	s := NewScheduler(testTop(t, 2, 2), Options{})
	if err := s.RegisterApp("a", "", []resource.ScheduleUnit{
		{ID: 1, Priority: 10, MaxCount: 40, Size: resource.New(500, 1024)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.UpdateDemand("a", 1, []resource.LocalityHint{{Type: resource.LocalityCluster, Count: 40}}); err != nil {
		t.Fatal(err)
	}
	seen := 0
	if n := testing.AllocsPerRun(100, func() {
		s.ForEachGrantOn(0, func(app string, unitID, count int) { seen += count })
	}); n != 0 {
		t.Errorf("ForEachGrantOn allocates %v times per call, want 0", n)
	}
	if seen == 0 {
		t.Error("ForEachGrantOn visited nothing on a machine holding grants")
	}
}

// TestGrantIndexGrowsAcrossBlocks pushes one machine's table through several
// chunk doublings — past the end of the first arena block — and checks that
// no cell is lost or shared with a neighbour's table on the way.
func TestGrantIndexGrowsAcrossBlocks(t *testing.T) {
	x := newGrantIndex(2)
	const cells = 10 * grantIndexInitCells
	for u := int32(0); u < cells; u++ {
		x.add(0, 1, u, int(u)+1, true)
		if u%3 == 0 {
			x.add(1, 2, u, 1, true)
		}
	}
	for u := int32(0); u < cells; u += 2 {
		x.sub(0, 1, u, int(u)+1)
	}
	got := map[int32]int32{}
	for _, c := range x.cells[0] {
		if c.app != 1 {
			t.Fatalf("machine 0 holds a foreign cell %+v", c)
		}
		got[c.unit] = c.n
	}
	for u := int32(0); u < cells; u++ {
		want := int32(0)
		if u%2 == 1 {
			want = u + 1
		}
		if got[u] != want {
			t.Fatalf("unit %d: %d containers on machine 0, want %d", u, got[u], want)
		}
	}
	if n := len(x.cells[1]); n != (cells+2)/3 {
		t.Errorf("machine 1 holds %d cells, want %d", n, (cells+2)/3)
	}
}
