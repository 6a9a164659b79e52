package core

import (
	"testing"

	"repro/internal/appmaster"
	"repro/internal/master"
	"repro/internal/resource"
	"repro/internal/sim"
)

// End-to-end multi-tenancy (paper §3.4) through the full protocol stack:
// quota groups configured on the master, applications in different groups
// competing, preemption revoking over-quota holdings.

func quotaCluster(t *testing.T, seed int64) *Cluster {
	t.Helper()
	// One machine: 12 cores, 96 GB. Each group is guaranteed half.
	half := resource.New(6000, 48*1024)
	mcfg := master.Config{Sched: master.Options{
		EnablePreemption: true,
		Groups:           map[string]resource.Vector{"prod": half, "batch": half},
	}}
	return newCluster(t, Config{Racks: 1, MachinesPerRack: 1, Seed: seed, Master: mcfg})
}

func quotaUnit() resource.ScheduleUnit {
	return resource.ScheduleUnit{ID: 1, Priority: 100, MaxCount: 12, Size: resource.New(1000, 8192)}
}

func TestQuotaWorkConservingThenPreempted(t *testing.T) {
	c := quotaCluster(t, 71)
	// batch grabs the whole machine while prod is idle.
	batchHeld, batchRevoked := 0, 0
	batch := c.NewAppMaster(appmaster.Config{
		App: "batchapp", QuotaGroup: "batch", Units: []resource.ScheduleUnit{quotaUnit()},
	}, cbFuncs{
		Grant:  func(_ int, _ int32, n int) { batchHeld += n },
		Revoke: func(_ int, _ int32, n int) { batchHeld -= n; batchRevoked += n },
	})
	c.Run(100 * sim.Millisecond)
	batch.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 12})
	c.Run(sim.Second)
	if batchHeld != 12 {
		t.Fatalf("batch held = %d, want 12 (work-conserving borrow)", batchHeld)
	}

	// prod arrives: quota preemption must claw back up to prod's minimum.
	prodHeld := 0
	prod := c.NewAppMaster(appmaster.Config{
		App: "prodapp", QuotaGroup: "prod", Units: []resource.ScheduleUnit{quotaUnit()},
	}, cbFuncs{
		Grant: func(_ int, _ int32, n int) { prodHeld += n },
	})
	c.Run(100 * sim.Millisecond)
	prod.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 6})
	c.Run(sim.Second)
	if batchRevoked == 0 {
		t.Error("no quota preemption against the over-quota group")
	}
	if prodHeld == 0 {
		t.Error("prod received nothing despite its guaranteed minimum")
	}
	// prod must not exceed its minimum through preemption.
	half := resource.New(6000, 48*1024)
	if use := c.Scheduler().GroupUsage("prod"); !half.Contains(use) {
		t.Errorf("prod usage %v exceeds guaranteed minimum %v", use, half)
	}
	if bad := c.Scheduler().CheckInvariants(); len(bad) > 0 {
		t.Errorf("invariants: %v", bad)
	}
}

func TestQuotaUnknownGroupRejectedSilently(t *testing.T) {
	c := quotaCluster(t, 72)
	got := 0
	am := c.NewAppMaster(appmaster.Config{
		App: "stranger", QuotaGroup: "nosuchgroup", Units: []resource.ScheduleUnit{quotaUnit()},
	}, cbFuncs{
		Grant: func(_ int, _ int32, n int) { got += n },
	})
	c.Run(100 * sim.Millisecond)
	am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 4})
	c.Run(sim.Second)
	if got != 0 {
		t.Errorf("app in unknown quota group was granted %d", got)
	}
	if c.Scheduler().Registered("stranger") {
		t.Error("unknown-group app registered")
	}
}

func TestQuotaSurvivesMasterFailover(t *testing.T) {
	half := resource.New(6000, 48*1024)
	mcfg := master.Config{Sched: master.Options{
		EnablePreemption: true,
		Groups:           map[string]resource.Vector{"prod": half, "batch": half},
	}}
	c := newCluster(t, Config{Racks: 1, MachinesPerRack: 1, Seed: 73, Master: mcfg, Standby: true})
	held := 0
	am := c.NewAppMaster(appmaster.Config{
		App: "prodapp", QuotaGroup: "prod",
		Units:            []resource.ScheduleUnit{quotaUnit()},
		FullSyncInterval: 2 * sim.Second,
	}, cbFuncs{
		Grant:  func(_ int, _ int32, n int) { held += n },
		Revoke: func(_ int, _ int32, n int) { held -= n },
	})
	c.Run(100 * sim.Millisecond)
	am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 6})
	c.Run(sim.Second)
	if held != 6 {
		t.Fatalf("held = %d", held)
	}
	c.KillPrimaryMaster()
	c.Run(15 * sim.Second)
	p := c.Primary()
	if p == nil {
		t.Fatal("no successor")
	}
	// The successor rebuilt group accounting from re-registered apps and
	// restored grants.
	want := resource.New(6000, 6*8192)
	if use := p.Scheduler().GroupUsage("prod"); !use.Equal(want) {
		t.Errorf("group usage after failover = %v, want %v", use, want)
	}
	if bad := p.Scheduler().CheckInvariants(); len(bad) > 0 {
		t.Errorf("invariants after failover: %v", bad)
	}
}
