package master

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/resource"
)

// A hint at a level no hint has: no topology holds a node there.
var foreignHint = resource.LocalityHint{Type: resource.LocalityType(3), Count: 2}

// TestDemandUpdateOutsideTopologyDroppedWhole: an update with one hint at a
// node the topology does not hold is dropped whole — its valid cluster hint
// is not placed either — before its sequence number is marked seen, so the
// next update may reuse that number and is applied.
func TestDemandUpdateOutsideTopologyDroppedWhole(t *testing.T) {
	h := newMasterHarness(t, Config{ProcessName: "fm-1"})
	h.registerApp(t)
	s := h.m1.Scheduler()
	ep := int32(h.net.Endpoint("app1"))
	mark := h.m1.dedup.LastCh(ep, protocol.ChanDem)
	seq := h.seq.Next()
	h.send(&protocol.DemandUpdate{App: "app1", Seq: seq,
		Deltas: unitHints(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 1}, foreignHint)})
	if s.Held("app1", 1) != 0 || s.Waiting("app1", 1) != 0 {
		t.Fatalf("the update was applied: held %d, waiting %d (want 0, 0)", s.Held("app1", 1), s.Waiting("app1", 1))
	}
	if got := h.m1.dedup.LastCh(ep, protocol.ChanDem); got != mark {
		t.Fatalf("the dropped update moved the demand channel's mark %d -> %d", mark, got)
	}
	h.send(&protocol.DemandUpdate{App: "app1", Seq: seq,
		Deltas: unitHints(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 1})})
	if s.Held("app1", 1) != 1 {
		t.Fatalf("the next update with the same sequence number: held %d, want 1", s.Held("app1", 1))
	}
}

// TestFullSyncNamingTargetTwiceDroppedWhole: a sync whose unit names one
// target twice breaks the wire's strict (level, node) order and is dropped
// whole; the same demand stated once is reconciled.
func TestFullSyncNamingTargetTwiceDroppedWhole(t *testing.T) {
	h := newMasterHarness(t, Config{ProcessName: "fm-1"})
	h.registerApp(t)
	s := h.m1.Scheduler()
	units := []resource.ScheduleUnit{{ID: 1, Priority: 100, MaxCount: 100, Size: resource.New(1000, 2048)}}
	cluster := func(n int) resource.LocalityHint {
		return resource.LocalityHint{Type: resource.LocalityCluster, Count: n}
	}
	h.send(&protocol.FullDemandSync{App: "app1", Units: units, Seq: h.seq.Current(),
		Demand: unitHints(1, cluster(2), cluster(3))})
	if s.Held("app1", 1) != 0 || s.Waiting("app1", 1) != 0 {
		t.Fatalf("the sync was applied: held %d, waiting %d (want 0, 0)", s.Held("app1", 1), s.Waiting("app1", 1))
	}
	h.send(&protocol.FullDemandSync{App: "app1", Units: units, Seq: h.seq.Current(),
		Demand: unitHints(1, cluster(5))})
	if s.Held("app1", 1) != 5 {
		t.Fatalf("the well-formed sync: held %d, want 5", s.Held("app1", 1))
	}
}

// TestUpdateDemandOutsideTopologyFails: UpdateDemand with a hint outside the
// topology returns an error and changes nothing, its valid hints included.
func TestUpdateDemandOutsideTopologyFails(t *testing.T) {
	s := NewScheduler(testTop(t, 2, 2), Options{})
	mustRegister(t, s, "app", "", unit(1, 100, 10, 1000, 2048))
	ds, err := s.UpdateDemand("app", 1, []resource.LocalityHint{clusterHint(2), foreignHint})
	if err == nil {
		t.Fatal("UpdateDemand took a hint outside the topology")
	}
	if len(ds) != 0 || s.Held("app", 1) != 0 || s.Waiting("app", 1) != 0 {
		t.Fatalf("the refused call changed the scheduler: %d decisions, held %d, waiting %d",
			len(ds), s.Held("app", 1), s.Waiting("app", 1))
	}
	checkInv(t, s)
}
