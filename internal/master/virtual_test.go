package master

import (
	"testing"

	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
)

func virtualTop(t *testing.T, perNode int64) *topology.Topology {
	t.Helper()
	machines := []topology.Machine{
		{Name: "m1", Rack: "r1", Capacity: resource.New(12000, 96*1024).With("ASortResource", perNode)},
		{Name: "m2", Rack: "r1", Capacity: resource.New(12000, 96*1024).With("ASortResource", perNode)},
	}
	top, err := topology.New(machines)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func asortUnit(max int) resource.ScheduleUnit {
	return resource.ScheduleUnit{
		ID: 1, Priority: 100, MaxCount: max,
		Size: resource.New(100, 512).With("ASortResource", 1),
	}
}

func TestRaisingVirtualResourceUnblocksQueuedDemand(t *testing.T) {
	s := NewScheduler(virtualTop(t, 2), Options{})
	mustRegister(t, s, "asort", "", asortUnit(100))
	ds := mustDemand(t, s, "asort", 1, clusterHint(10))
	if grantTotal(ds) != 4 {
		t.Fatalf("granted %d, want 4 (2 per node)", grantTotal(ds))
	}
	if s.Waiting("asort", 1) != 6 {
		t.Fatalf("waiting = %d", s.Waiting("asort", 1))
	}
	// Administrator raises the per-node concurrency cap at runtime.
	ds = s.SetVirtualResource("m1", "ASortResource", 5)
	if grantTotal(ds) != 3 {
		t.Errorf("granted %d after raise, want 3 more on m1", grantTotal(ds))
	}
	ds = s.SetVirtualResource("m2", "ASortResource", 5)
	if grantTotal(ds) != 3 {
		t.Errorf("granted %d after second raise, want 3", grantTotal(ds))
	}
	checkInv(t, s)
}

func TestLoweringVirtualResourceOversubscribesWithoutRevoking(t *testing.T) {
	s := NewScheduler(virtualTop(t, 4), Options{})
	mustRegister(t, s, "asort", "", asortUnit(100))
	mustDemand(t, s, "asort", 1, clusterHint(8))
	if s.Held("asort", 1) != 8 {
		t.Fatalf("held = %d", s.Held("asort", 1))
	}
	ds := s.SetVirtualResource("m1", "ASortResource", 1)
	if len(ds) != 0 {
		t.Errorf("lowering produced decisions: %v", ds)
	}
	// Nothing revoked; the dimension is oversubscribed and blocks new work.
	if s.Held("asort", 1) != 8 {
		t.Errorf("held changed to %d", s.Held("asort", 1))
	}
	ds = mustDemand(t, s, "asort", 1, resource.LocalityHint{Type: resource.LocalityMachine, Node: s.top.MachineID("m1"), Count: 1})
	if grantTotal(ds) != 0 {
		t.Errorf("oversubscribed machine granted %d", grantTotal(ds))
	}
	// Returning containers drains the oversubscription; only then do new
	// grants flow.
	if _, err := s.Return("asort", 1, "m1", 4); err != nil {
		t.Fatal(err)
	}
	// 4 returned against capacity 1: free is 1 now; queued single lands.
	if got := s.Held("asort", 1); got != 5 {
		t.Errorf("held after return = %d, want 5 (4 freed, 1 regranted)", got)
	}
	checkInv(t, s)
}

func TestStarvationAgingPromotesOldWaiters(t *testing.T) {
	// Extension (§7 future work): a low-priority waiter queued behind a
	// steady stream of high-priority demand eventually wins via aging.
	now := sim.Time(0)
	newSched := func(boost float64) *Scheduler {
		return NewScheduler(testTop(t, 1, 1), Options{
			Clock:               func() sim.Time { return now },
			AgingBoostPerSecond: boost,
		})
	}
	run := func(s *Scheduler) string {
		mustRegister(t, s, "holder", "", unit(1, 100, 12, 1000, 4096))
		mustDemand(t, s, "holder", 1, clusterHint(12)) // fill the machine
		mustRegister(t, s, "lowpri", "", unit(1, 500, 12, 1000, 4096))
		mustDemand(t, s, "lowpri", 1, clusterHint(1)) // queued at t=0
		// High-priority demand keeps arriving as time passes.
		mustRegister(t, s, "stream", "", unit(1, 100, 100, 1000, 4096))
		now = 120 * sim.Second
		mustDemand(t, s, "stream", 1, clusterHint(5))
		// One container frees up: who gets it?
		ds, err := s.Return("holder", 1, "r000m000", 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			if d.Delta > 0 {
				return d.App
			}
		}
		return ""
	}

	now = 0
	if winner := run(newSched(0)); winner != "stream" {
		t.Errorf("without aging winner = %q, want stream (strict priority)", winner)
	}
	now = 0
	// 400 priority points of deficit close in 120 s at ~4 points/s.
	if winner := run(newSched(4)); winner != "lowpri" {
		t.Errorf("with aging winner = %q, want lowpri (aged past the stream)", winner)
	}
}

func TestSetVirtualResourceRejectsPhysicalDims(t *testing.T) {
	s := NewScheduler(virtualTop(t, 1), Options{})
	if ds := s.SetVirtualResource("m1", resource.CPU, 1); ds != nil {
		t.Error("CPU mutated")
	}
	if ds := s.SetVirtualResource("m1", resource.Memory, 1); ds != nil {
		t.Error("Memory mutated")
	}
	if ds := s.SetVirtualResource("ghost", "X", 1); ds != nil {
		t.Error("unknown machine accepted")
	}
}
