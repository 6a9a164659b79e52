package core

import (
	"fmt"
	"testing"

	"repro/internal/appmaster"
	"repro/internal/gateway"
	"repro/internal/invariant"
	"repro/internal/master"
	"repro/internal/resource"
	"repro/internal/sim"
)

// TestGatewayAcrossMasterFailover boots the full facade — hot-standby
// master pair plus submission gateway — submits jobs through the front
// door, and crashes the primary while admits are in flight: every job must
// end up registered exactly once with a live application master, and the
// admission-conservation rule must hold at a settled barrier even though
// the registered jobs are still running.
func TestGatewayAcrossMasterFailover(t *testing.T) {
	lim := gateway.DefaultLimits()
	lim.RefillEvery = 0 // this test is about failover, not rate limiting
	lim.AdmitPeriod = 5 * sim.Millisecond
	lim.RetryEvery = 200 * sim.Millisecond

	var c *Cluster
	registered := map[string]int{}
	gcfg := &gateway.Config{
		Limits: lim,
		OnRegistered: func(j gateway.Job, _ int32) {
			registered[j.ID]++
			am := c.NewAppMaster(appmaster.Config{
				App:        j.ID,
				QuotaGroup: j.Class.QuotaGroup(),
				Units:      []resource.ScheduleUnit{{ID: 1, Priority: 1, Size: resource.New(100, 512), MaxCount: 2}},
				// The safety sync repairs a RegisterApp that raced the crash.
				FullSyncInterval: 2 * sim.Second,
			}, appmaster.NoCallbacks{})
			am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 2})
		},
	}

	mcfg := master.DefaultConfig("fm-1")
	c, err := NewCluster(Config{
		Racks: 2, MachinesPerRack: 3, Seed: 7,
		Standby: true,
		Master:  mcfg,
		Gateway: gcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Gateway == nil {
		t.Fatal("gateway not wired")
	}

	const jobs = 12
	for i := 0; i < jobs; i++ {
		id := fmt.Sprintf("gw-job-%02d", i)
		n := i
		c.Eng.At(sim.Time(100+20*n)*sim.Millisecond, func() {
			c.Gateway.Submit(gateway.Job{ID: id, Tenant: fmt.Sprintf("tenant-%d", n), Class: gateway.Class(n % 2)})
		})
	}
	// Crash the primary in the middle of the submission window: some admits
	// and acks are in flight, some jobs are still queued.
	c.Eng.At(200*sim.Millisecond, func() { c.KillPrimaryMaster() })

	c.Run(20 * sim.Second) // election (3s TTL) + recovery + drain + a sync

	for i := 0; i < jobs; i++ {
		id := fmt.Sprintf("gw-job-%02d", i)
		switch registered[id] {
		case 0:
			t.Errorf("job %s lost across the failover", id)
		case 1:
		default:
			t.Errorf("job %s registered %d times", id, registered[id])
		}
	}
	st := c.Gateway.Snapshot()
	if st.Registered != jobs {
		t.Fatalf("registered %d of %d jobs (epoch %d)", st.Registered, jobs, st.MasterEpoch)
	}
	if st.MasterEpoch != 2 {
		t.Errorf("gateway observed epoch %d, want 2 after one failover", st.MasterEpoch)
	}

	chk := &invariant.Checker{
		Top:     c.Top,
		Sched:   c.Scheduler,
		Gateway: c.Gateway,
	}
	if bad := chk.CheckAdmission(true); len(bad) > 0 {
		t.Errorf("admission conservation violated at settled barrier: %v", bad)
	}
	// The settled cross-check is not vacuous here: jobs are still open.
	if open := c.Gateway.RegisteredOpen(); len(open) != jobs {
		t.Errorf("%d open registered jobs, want %d", len(open), jobs)
	}
}
