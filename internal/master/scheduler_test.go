package master

import (
	"testing"

	"repro/internal/resource"
	"repro/internal/topology"
)

func testTop(t *testing.T, racks, perRack int) *topology.Topology {
	t.Helper()
	top, err := topology.Build(topology.Spec{
		Racks: racks, MachinesPerRack: perRack,
		MachineCapacity: resource.New(12000, 96*1024),
	})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func unit(id, pri, max int, cpu, mem int64) resource.ScheduleUnit {
	return resource.ScheduleUnit{ID: id, Priority: pri, MaxCount: max, Size: resource.New(cpu, mem)}
}

func mustRegister(t *testing.T, s *Scheduler, app, group string, units ...resource.ScheduleUnit) {
	t.Helper()
	if err := s.RegisterApp(app, group, units); err != nil {
		t.Fatal(err)
	}
}

func mustDemand(t *testing.T, s *Scheduler, app string, unitID int, hints ...resource.LocalityHint) []Decision {
	t.Helper()
	d, err := s.UpdateDemand(app, unitID, hints)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func grantTotal(ds []Decision) int {
	n := 0
	for _, d := range ds {
		if d.Delta > 0 {
			n += d.Delta
		}
	}
	return n
}

// giveBack is one container return the way FuxiMaster applies it: the
// release (releaseChecked), then an assignment pass over the freed machine.
func giveBack(s *Scheduler, app string, unitID int, machine int32, count int) ([]Decision, error) {
	st, u, err := s.lookup(app, unitID)
	if err == nil {
		err = s.releaseChecked(st, u, machine, count)
	}
	if err != nil {
		return nil, err
	}
	return s.assignOnIDs([]int32{machine}), nil
}

// restore is the recovery-time restoreGrant for the app named app, false
// when the scheduler does not know the app (FuxiMaster skips those).
func restore(s *Scheduler, app string, unitID int, machine int32, count int) bool {
	st, ok := s.apps[app]
	return ok && s.restoreGrant(st, unitID, machine, count)
}

func checkInv(t *testing.T, s *Scheduler) {
	t.Helper()
	if bad := s.CheckInvariants(); len(bad) > 0 {
		t.Fatalf("invariants violated: %v", bad)
	}
}

func clusterHint(n int) resource.LocalityHint {
	return resource.LocalityHint{Type: resource.LocalityCluster, Count: n}
}

func TestRegisterValidation(t *testing.T) {
	s := NewScheduler(testTop(t, 1, 2), Options{})
	if err := s.RegisterApp("", "", nil); err == nil {
		t.Error("empty app accepted")
	}
	mustRegister(t, s, "a", "", unit(1, 100, 10, 1000, 2048))
	if err := s.RegisterApp("a", "", nil); err == nil {
		t.Error("duplicate app accepted")
	}
	if err := s.RegisterApp("b", "nogroup", nil); err == nil {
		t.Error("unknown group accepted")
	}
	if err := s.RegisterApp("c", "", []resource.ScheduleUnit{{ID: 1, MaxCount: 0, Size: resource.New(1, 1)}}); err == nil {
		t.Error("invalid unit accepted")
	}
	if err := s.RegisterApp("d", "", []resource.ScheduleUnit{unit(1, 1, 1, 1, 1), unit(1, 1, 1, 1, 1)}); err == nil {
		t.Error("duplicate unit accepted")
	}
}

func TestImmediateClusterGrant(t *testing.T) {
	s := NewScheduler(testTop(t, 2, 2), Options{})
	mustRegister(t, s, "app1", "", unit(1, 100, 10, 1000, 2048))
	ds := mustDemand(t, s, "app1", 1, clusterHint(10))
	if got := grantTotal(ds); got != 10 {
		t.Errorf("granted %d, want 10", got)
	}
	if s.Held("app1", 1) != 10 {
		t.Errorf("held = %d", s.Held("app1", 1))
	}
	if s.Waiting("app1", 1) != 0 {
		t.Errorf("waiting = %d", s.Waiting("app1", 1))
	}
	checkInv(t, s)
}

func TestMachinePreferenceGrant(t *testing.T) {
	top := testTop(t, 2, 2)
	s := NewScheduler(top, Options{})
	m := top.Machines()[0]
	mustRegister(t, s, "app1", "", unit(1, 100, 10, 1000, 2048))
	ds := mustDemand(t, s, "app1", 1, resource.LocalityHint{Type: resource.LocalityMachine, Node: 0, Count: 2})
	if grantTotal(ds) != 2 {
		t.Fatalf("granted %d, want 2", grantTotal(ds))
	}
	for _, d := range ds {
		if d.Machine != m {
			t.Errorf("grant on %s, want %s", d.Machine, m)
		}
	}
	checkInv(t, s)
}

func TestRackPreferenceGrant(t *testing.T) {
	top := testTop(t, 2, 3)
	s := NewScheduler(top, Options{})
	mustRegister(t, s, "app1", "", unit(1, 100, 50, 6000, 48*1024))
	ds := mustDemand(t, s, "app1", 1, resource.LocalityHint{Type: resource.LocalityRack, Node: 1, Count: 5})
	if grantTotal(ds) != 5 {
		t.Fatalf("granted %d, want 5", grantTotal(ds))
	}
	for _, d := range ds {
		if rack := top.RackIDOf(d.MachineID); rack != 1 {
			t.Errorf("grant on rack %s, want %s", top.RackName(rack), top.RackName(1))
		}
	}
	checkInv(t, s)
}

func TestQueueWhenInsufficientThenGrantOnReturn(t *testing.T) {
	// 1 machine, capacity 12 cores. app1 takes all; app2 queues; app1
	// returns; app2 gets it. Mirrors paper Figure 3 steps 3-4.
	s := NewScheduler(testTop(t, 1, 1), Options{})
	mustRegister(t, s, "app1", "", unit(1, 100, 12, 1000, 4096))
	mustRegister(t, s, "app2", "", unit(1, 100, 4, 1000, 4096))
	m := "r000m000"

	ds := mustDemand(t, s, "app1", 1, clusterHint(12))
	if grantTotal(ds) != 12 {
		t.Fatalf("app1 granted %d, want 12", grantTotal(ds))
	}
	ds = mustDemand(t, s, "app2", 1, clusterHint(4))
	if grantTotal(ds) != 0 {
		t.Fatalf("app2 granted %d from full cluster", grantTotal(ds))
	}
	if s.Waiting("app2", 1) != 4 {
		t.Fatalf("app2 waiting = %d, want 4", s.Waiting("app2", 1))
	}

	rds, err := giveBack(s, "app1", 1, s.top.MachineID(m), 3)
	if err != nil {
		t.Fatal(err)
	}
	if grantTotal(rds) != 3 {
		t.Fatalf("reassigned %d, want 3", grantTotal(rds))
	}
	for _, d := range rds {
		if d.App != "app2" {
			t.Errorf("reassigned to %s", d.App)
		}
	}
	if s.Waiting("app2", 1) != 1 {
		t.Errorf("app2 waiting = %d, want 1", s.Waiting("app2", 1))
	}
	checkInv(t, s)
}

func TestSmallerUnitFitsWhereBigCannot(t *testing.T) {
	// Paper Figure 3 step 4: app with smaller unit size can use a returned
	// fragment a bigger unit cannot.
	s := NewScheduler(testTop(t, 1, 1), Options{})
	mustRegister(t, s, "big", "", unit(1, 100, 12, 2000, 5120))
	mustRegister(t, s, "small", "", unit(1, 100, 24, 1000, 2048))
	mustDemand(t, s, "big", 1, clusterHint(6)) // 12 cores, 30 GB: full CPU
	ds := mustDemand(t, s, "small", 1, clusterHint(2))
	if grantTotal(ds) != 0 {
		t.Fatalf("small granted %d on full machine", grantTotal(ds))
	}
	// big returns one unit: 2000 CPU, 5 GB free. small's 1-core units fit.
	rds, err := giveBack(s, "big", 1, s.top.MachineID("r000m000"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if grantTotal(rds) != 2 {
		t.Errorf("small got %d, want 2", grantTotal(rds))
	}
	checkInv(t, s)
}

func TestMaxCountCapsGrants(t *testing.T) {
	s := NewScheduler(testTop(t, 2, 4), Options{})
	mustRegister(t, s, "a", "", unit(1, 100, 3, 1000, 2048))
	ds := mustDemand(t, s, "a", 1, clusterHint(10))
	if grantTotal(ds) != 3 {
		t.Errorf("granted %d, want MaxCount 3", grantTotal(ds))
	}
	// Demand beyond MaxCount remains queued but never granted while held.
	if w := s.Waiting("a", 1); w != 7 {
		t.Errorf("waiting = %d, want 7", w)
	}
	checkInv(t, s)
}

func TestMaxCountFreesAfterReturn(t *testing.T) {
	s := NewScheduler(testTop(t, 1, 1), Options{})
	mustRegister(t, s, "a", "", unit(1, 100, 2, 1000, 2048))
	mustDemand(t, s, "a", 1, clusterHint(5))
	if s.Held("a", 1) != 2 {
		t.Fatalf("held = %d", s.Held("a", 1))
	}
	rds, err := giveBack(s, "a", 1, s.top.MachineID("r000m000"), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Headroom is back to 1; queued demand flows in.
	if grantTotal(rds) != 1 {
		t.Errorf("post-return grant = %d, want 1", grantTotal(rds))
	}
	checkInv(t, s)
}

func TestNegativeDemandCancelsQueued(t *testing.T) {
	s := NewScheduler(testTop(t, 1, 1), Options{})
	mustRegister(t, s, "a", "", unit(1, 100, 100, 12000, 96*1024))
	mustRegister(t, s, "b", "", unit(1, 100, 100, 12000, 96*1024))
	mustDemand(t, s, "a", 1, clusterHint(1)) // takes whole machine
	mustDemand(t, s, "b", 1, clusterHint(5))
	if s.Waiting("b", 1) != 5 {
		t.Fatalf("waiting = %d", s.Waiting("b", 1))
	}
	mustDemand(t, s, "b", 1, clusterHint(-3))
	if s.Waiting("b", 1) != 2 {
		t.Errorf("waiting after cancel = %d, want 2", s.Waiting("b", 1))
	}
	mustDemand(t, s, "b", 1, clusterHint(-10))
	if s.Waiting("b", 1) != 0 {
		t.Errorf("waiting floored = %d, want 0", s.Waiting("b", 1))
	}
	checkInv(t, s)
}

func TestPriorityOrderOnFreeUp(t *testing.T) {
	s := NewScheduler(testTop(t, 1, 1), Options{})
	mustRegister(t, s, "holder", "", unit(1, 100, 12, 1000, 4096))
	mustRegister(t, s, "low", "", unit(1, 500, 12, 1000, 4096))
	mustRegister(t, s, "high", "", unit(1, 10, 12, 1000, 4096))
	mustDemand(t, s, "holder", 1, clusterHint(12))
	mustDemand(t, s, "low", 1, clusterHint(2))  // queued first
	mustDemand(t, s, "high", 1, clusterHint(2)) // queued second, higher priority
	rds, err := giveBack(s, "holder", 1, s.top.MachineID("r000m000"), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range rds {
		if d.Delta > 0 && d.App != "high" {
			t.Errorf("grant went to %s, want high-priority app", d.App)
		}
	}
	if s.Held("high", 1) != 2 || s.Held("low", 1) != 0 {
		t.Errorf("held high=%d low=%d", s.Held("high", 1), s.Held("low", 1))
	}
	checkInv(t, s)
}

func TestFIFOAtEqualPriority(t *testing.T) {
	s := NewScheduler(testTop(t, 1, 1), Options{})
	mustRegister(t, s, "holder", "", unit(1, 100, 12, 1000, 4096))
	mustRegister(t, s, "first", "", unit(1, 200, 12, 1000, 4096))
	mustRegister(t, s, "second", "", unit(1, 200, 12, 1000, 4096))
	mustDemand(t, s, "holder", 1, clusterHint(12))
	mustDemand(t, s, "first", 1, clusterHint(2))
	mustDemand(t, s, "second", 1, clusterHint(2))
	rds, _ := giveBack(s, "holder", 1, s.top.MachineID("r000m000"), 2)
	for _, d := range rds {
		if d.Delta > 0 && d.App != "first" {
			t.Errorf("grant to %s, want first (FIFO)", d.App)
		}
	}
	checkInv(t, s)
}

func TestMachineQueuePrecedesClusterQueue(t *testing.T) {
	// Paper §3.3: at equal priority, machine-queue waiters win over
	// rack/cluster waiters.
	top := testTop(t, 1, 2)
	s := NewScheduler(top, Options{})
	m0 := top.Machines()[0]
	mustRegister(t, s, "holder", "", unit(1, 100, 24, 1000, 4096))
	mustRegister(t, s, "clusterwaiter", "", unit(1, 200, 12, 1000, 4096))
	mustRegister(t, s, "machinewaiter", "", unit(1, 200, 12, 1000, 4096))
	mustDemand(t, s, "holder", 1, clusterHint(24)) // fill both machines
	// clusterwaiter queues FIRST at cluster level; machinewaiter queues
	// second but at machine level on m0.
	mustDemand(t, s, "clusterwaiter", 1, clusterHint(1))
	mustDemand(t, s, "machinewaiter", 1, resource.LocalityHint{Type: resource.LocalityMachine, Node: 0, Count: 1})
	rds, _ := giveBack(s, "holder", 1, top.MachineID(m0), 1)
	if len(rds) == 0 {
		t.Fatal("no reassignment")
	}
	if rds[0].App != "machinewaiter" {
		t.Errorf("grant to %s, want machinewaiter (machine-queue precedence)", rds[0].App)
	}
	checkInv(t, s)
}

func TestHigherPriorityClusterBeatsLowerPriorityMachine(t *testing.T) {
	// Precedence of the machine queue applies only at equal priority.
	top := testTop(t, 1, 2)
	s := NewScheduler(top, Options{})
	m0 := top.Machines()[0]
	mustRegister(t, s, "holder", "", unit(1, 100, 24, 1000, 4096))
	mustRegister(t, s, "urgent", "", unit(1, 10, 12, 1000, 4096))
	mustRegister(t, s, "casual", "", unit(1, 500, 12, 1000, 4096))
	mustDemand(t, s, "holder", 1, clusterHint(24))
	mustDemand(t, s, "casual", 1, resource.LocalityHint{Type: resource.LocalityMachine, Node: 0, Count: 1})
	mustDemand(t, s, "urgent", 1, clusterHint(1))
	rds, _ := giveBack(s, "holder", 1, top.MachineID(m0), 1)
	if len(rds) == 0 || rds[0].App != "urgent" {
		t.Errorf("grant order = %v, want urgent first", rds)
	}
	checkInv(t, s)
}

func TestWaitingByLevelMirrorsFigure5(t *testing.T) {
	top := testTop(t, 2, 2)
	s := NewScheduler(top, Options{})
	mustRegister(t, s, "filler", "", unit(1, 1, 1000, 12000, 96*1024))
	mustDemand(t, s, "filler", 1, clusterHint(4)) // consume entire cluster
	mustRegister(t, s, "app1", "", unit(1, 100, 100, 1000, 2048))
	mustDemand(t, s, "app1", 1,
		resource.LocalityHint{Type: resource.LocalityMachine, Node: 0, Count: 4},
		resource.LocalityHint{Type: resource.LocalityMachine, Node: 1, Count: 4},
		resource.LocalityHint{Type: resource.LocalityRack, Node: top.RackIDOf(0), Count: 1},
		clusterHint(1),
	)
	mc, rk, cl := s.WaitingByLevel("app1", 1)
	if mc != 8 || rk != 1 || cl != 1 {
		t.Errorf("waiting by level = %d/%d/%d, want 8/1/1", mc, rk, cl)
	}
	checkInv(t, s)
}

func TestReturnValidation(t *testing.T) {
	s := NewScheduler(testTop(t, 1, 1), Options{})
	mustRegister(t, s, "a", "", unit(1, 100, 5, 1000, 2048))
	mustDemand(t, s, "a", 1, clusterHint(2))
	if _, err := giveBack(s, "a", 1, s.top.MachineID("r000m000"), 5); err == nil {
		t.Error("over-return accepted")
	}
	if _, err := giveBack(s, "a", 1, s.top.MachineID("r000m000"), 0); err == nil {
		t.Error("zero return accepted")
	}
	if _, err := giveBack(s, "nope", 1, s.top.MachineID("r000m000"), 1); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := giveBack(s, "a", 9, s.top.MachineID("r000m000"), 1); err == nil {
		t.Error("unknown unit accepted")
	}
}

func TestUnregisterFreesAndReassigns(t *testing.T) {
	s := NewScheduler(testTop(t, 1, 1), Options{})
	mustRegister(t, s, "a", "", unit(1, 100, 12, 1000, 4096))
	mustRegister(t, s, "b", "", unit(1, 100, 12, 1000, 4096))
	mustDemand(t, s, "a", 1, clusterHint(12))
	mustDemand(t, s, "b", 1, clusterHint(6))
	ds := s.UnregisterApp("a")
	if grantTotal(ds) != 6 {
		t.Errorf("b received %d after a exited, want 6", grantTotal(ds))
	}
	if s.Registered("a") {
		t.Error("a still registered")
	}
	if s.UnregisterApp("a") != nil {
		t.Error("double unregister returned decisions")
	}
	checkInv(t, s)
}

func TestMachineDownRevokesAndUpRestores(t *testing.T) {
	top := testTop(t, 1, 2)
	s := NewScheduler(top, Options{})
	m0, m1 := top.Machines()[0], top.Machines()[1]
	mustRegister(t, s, "a", "", unit(1, 100, 24, 1000, 4096))
	mustDemand(t, s, "a", 1, clusterHint(24))
	held := s.Granted("a", 1)
	if held[m0] != 12 || held[m1] != 12 {
		t.Fatalf("granted = %v", held)
	}
	ds := s.MachineDown(top.MachineID(m0))
	if len(ds) != 1 || ds[0].Delta != -12 || ds[0].Reason != ReasonRevokeNodeDown {
		t.Fatalf("down decisions = %v", ds)
	}
	if s.Held("a", 1) != 12 {
		t.Errorf("held after down = %d", s.Held("a", 1))
	}
	if s.MachineDown(top.MachineID(m0)) != nil {
		t.Error("double down returned decisions")
	}
	checkInv(t, s)

	// App re-requests (its AM reacts to revocation); demand queues since m1
	// is full, then machine recovery satisfies it.
	mustDemand(t, s, "a", 1, clusterHint(12))
	ds = s.MachineUp(top.MachineID(m0))
	if grantTotal(ds) != 12 {
		t.Errorf("regrant after up = %d, want 12", grantTotal(ds))
	}
	checkInv(t, s)
}

func TestTotalsAndPlanned(t *testing.T) {
	top := testTop(t, 1, 2)
	s := NewScheduler(top, Options{})
	mustRegister(t, s, "a", "", unit(1, 100, 4, 1000, 2048))
	mustDemand(t, s, "a", 1, clusterHint(4))
	wantPlanned := resource.New(4000, 4*2048)
	if !s.PlannedTotal().Equal(wantPlanned) {
		t.Errorf("planned = %v, want %v", s.PlannedTotal(), wantPlanned)
	}
	total := s.TotalCapacity()
	free := s.TotalFree()
	if !free.Add(wantPlanned).Equal(total) {
		t.Errorf("free %v + planned %v != total %v", free, wantPlanned, total)
	}
	s.MachineDown(0)
	if !s.TotalCapacity().Equal(resource.New(12000, 96*1024)) {
		t.Errorf("capacity after down = %v", s.TotalCapacity())
	}
}

func TestBlacklistStopsNewGrants(t *testing.T) {
	top := testTop(t, 1, 2)
	s := NewScheduler(top, Options{})
	m0 := top.Machines()[0]
	mustRegister(t, s, "a", "", unit(1, 100, 24, 1000, 4096))
	s.SetBlacklisted(top.MachineID(m0), true)
	ds := mustDemand(t, s, "a", 1, clusterHint(24))
	for _, d := range ds {
		if d.Machine == m0 {
			t.Errorf("grant on blacklisted machine")
		}
	}
	if grantTotal(ds) != 12 {
		t.Errorf("granted %d, want 12 (one machine usable)", grantTotal(ds))
	}
	// Unblacklist: queued demand flows onto m0.
	ds = s.SetBlacklisted(top.MachineID(m0), false)
	if grantTotal(ds) != 12 {
		t.Errorf("granted %d after unblacklist, want 12", grantTotal(ds))
	}
	checkInv(t, s)
}

func TestRestoreGrantRebuildsState(t *testing.T) {
	top := testTop(t, 1, 2)
	s := NewScheduler(top, Options{})
	mustRegister(t, s, "a", "", unit(1, 100, 10, 1000, 4096))
	st := s.apps["a"]
	if !s.restoreGrant(st, 1, 0, 3) {
		t.Fatal("restore failed")
	}
	if s.Held("a", 1) != 3 {
		t.Errorf("held = %d", s.Held("a", 1))
	}
	if s.restoreGrant(st, 9, 0, 1) {
		t.Error("restore for unknown unit succeeded")
	}
	if s.restoreGrant(st, 1, 0, 0) {
		t.Error("restore of zero containers succeeded")
	}
	checkInv(t, s)
}

func TestVirtualResourceLimitsConcurrency(t *testing.T) {
	// Paper §3.2.1: a node configured with 5 ASortResource admits at most 5
	// concurrent ASort workers regardless of CPU/memory headroom.
	machines := []topology.Machine{
		{Name: "m1", Rack: "r1", Capacity: resource.New(12000, 96*1024).With("ASortResource", 5)},
	}
	top, err := topology.New(machines)
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(top, Options{})
	u := resource.ScheduleUnit{ID: 1, Priority: 100, MaxCount: 100,
		Size: resource.New(100, 512).With("ASortResource", 1)}
	mustRegister(t, s, "asort", "", u)
	ds := mustDemand(t, s, "asort", 1, clusterHint(20))
	if grantTotal(ds) != 5 {
		t.Errorf("granted %d, want 5 (virtual resource cap)", grantTotal(ds))
	}
	checkInv(t, s)
}

func TestClusterPlacementSpreads(t *testing.T) {
	top := testTop(t, 2, 5)
	s := NewScheduler(top, Options{})
	// 10 apps each asking one container: rotating cursor should land them
	// on several distinct machines, not all on one.
	used := map[string]bool{}
	for i := 0; i < 10; i++ {
		app := string(rune('a' + i))
		mustRegister(t, s, app, "", unit(1, 100, 1, 1000, 2048))
		ds := mustDemand(t, s, app, 1, clusterHint(1))
		for _, d := range ds {
			used[d.Machine] = true
		}
	}
	if len(used) < 5 {
		t.Errorf("placements on %d machines, want spread >= 5", len(used))
	}
	checkInv(t, s)
}

func TestUpdateDemandErrors(t *testing.T) {
	s := NewScheduler(testTop(t, 1, 1), Options{})
	if _, err := s.UpdateDemand("ghost", 1, nil); err == nil {
		t.Error("unknown app accepted")
	}
	mustRegister(t, s, "a", "", unit(1, 100, 5, 1000, 2048))
	if _, err := s.UpdateDemand("a", 42, nil); err == nil {
		t.Error("unknown unit accepted")
	}
	// Zero-count hints are no-ops.
	ds := mustDemand(t, s, "a", 1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 0})
	if len(ds) != 0 {
		t.Errorf("zero hint produced decisions: %v", ds)
	}
}

func TestMultipleUnitsPerApp(t *testing.T) {
	s := NewScheduler(testTop(t, 1, 2), Options{})
	mustRegister(t, s, "mr", "",
		unit(1, 100, 10, 500, 2048), // mappers
		unit(2, 200, 2, 2000, 8192)) // reducers
	d1 := mustDemand(t, s, "mr", 1, clusterHint(10))
	d2 := mustDemand(t, s, "mr", 2, clusterHint(2))
	if grantTotal(d1) != 10 || grantTotal(d2) != 2 {
		t.Errorf("granted %d/%d, want 10/2", grantTotal(d1), grantTotal(d2))
	}
	if s.Held("mr", 1) != 10 || s.Held("mr", 2) != 2 {
		t.Errorf("held = %d/%d", s.Held("mr", 1), s.Held("mr", 2))
	}
	checkInv(t, s)
}

// TestWideAppBooksCostChunks: registering a forty-unit app, demanding three
// containers a unit (two granted at once, the third queued in the locality
// tree) and unregistering it costs a few allocations beyond the forty queued
// wait entries: the app and its unit array, its row in the tree, and the
// chunks its units' granted ledgers and tree tables draw their first cells
// from — five of each — not two tables a unit.
func TestWideAppBooksCostChunks(t *testing.T) {
	s := NewScheduler(testTop(t, 4, 10), Options{})
	units := make([]resource.ScheduleUnit, 40)
	for i := range units {
		units[i] = unit(i+1, 1, 2, 500, 2048)
	}
	hints := []resource.LocalityHint{clusterHint(3)}
	var out []Decision
	cycle := func() {
		mustRegister(t, s, "wide", "", units...)
		st := s.apps["wide"]
		for i := range st.unitArr {
			s.applyDemand(st, &st.unitArr[i], hints, &out)
		}
		if s.tree.totalWaiting(waitKey{app: st.id, unit: 39}) != 1 || st.unitArr[39].held != 2 {
			t.Fatal("the demand was not split into two grants and one wait")
		}
		out = out[:0]
		s.unregister(st, &out)
		out = out[:0]
	}
	cycle()
	const bound = 40 + 3 + 2*5 + 2 // entries, app/units/tree row, chunks, slack
	if n := testing.AllocsPerRun(20, cycle); n > bound {
		t.Fatalf("a forty-unit app's books cost %v allocations, want at most %d", n, bound)
	}
}
