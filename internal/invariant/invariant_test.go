package invariant_test

import (
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/appmaster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/invariant"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
)

// wire builds a small standby-pair cluster with one application holding
// real grants, plus a checker attached to its live components.
func wire(t *testing.T) (*core.Cluster, *appmaster.AM, *invariant.Checker) {
	t.Helper()
	cluster, err := core.NewCluster(core.Config{Racks: 2, MachinesPerRack: 3, Seed: 7, Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	am := cluster.NewAppMaster(appmaster.Config{
		App: "app-inv",
		Units: []resource.ScheduleUnit{
			{ID: 1, Priority: 10, MaxCount: 8, Size: resource.New(1000, 4096)},
			{ID: 2, Priority: 20, MaxCount: 4, Size: resource.New(2000, 8192)},
		},
	}, appmaster.NoCallbacks{})
	cluster.Run(sim.Second)
	am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 8})
	am.Request(2, resource.LocalityHint{Type: resource.LocalityCluster, Count: 4})
	cluster.Run(2 * sim.Second)

	ck := &invariant.Checker{
		Top:    cluster.Top,
		Sched:  cluster.Scheduler,
		Agents: func() []*agent.Agent { return cluster.Agents },
		AMs:    func() []*appmaster.AM { return []*appmaster.AM{am} },
		Ckpt:   cluster.Ckpt,
	}
	return cluster, am, ck
}

func TestCheckerSilentOnHealthyCluster(t *testing.T) {
	_, am, ck := wire(t)
	if am.HeldTotal(1) != 8 || am.HeldTotal(2) != 4 {
		t.Fatalf("setup: app holds %d/%d", am.HeldTotal(1), am.HeldTotal(2))
	}
	if bad := ck.CheckAll(true); len(bad) != 0 {
		t.Fatalf("healthy cluster flagged: %v", bad)
	}
	if ck.Checks == 0 {
		t.Fatal("checker did not count its invocations")
	}
}

func TestCheckerSilentAcrossMasterFailover(t *testing.T) {
	cluster, _, ck := wire(t)
	if bad := ck.CheckAll(true); len(bad) != 0 {
		t.Fatalf("pre-crash violations: %v", bad)
	}
	cluster.KillPrimaryMaster()
	if got := ck.CheckScheduler(); got != nil {
		t.Fatalf("interregnum must skip, not fail: %v", got)
	}
	cluster.Run(10 * sim.Second) // election + recovery window + settle
	p := cluster.Primary()
	if p == nil {
		t.Fatal("standby never promoted")
	}
	if p.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", p.Epoch())
	}
	if bad := ck.CheckAll(true); len(bad) != 0 {
		t.Fatalf("rebuilt soft state diverges from pre-crash truth: %v", bad)
	}
}

// TestCheckerDetectsLedgerDivergence proves the checker can actually fail,
// in both directions of the master/agent comparison: a rogue capacity update
// (stamped with the primary's epoch, from an endpoint the agent holds no
// sequence mark for) either strips capacity the master granted on a machine
// or plants capacity the master never granted there.
func TestCheckerDetectsLedgerDivergence(t *testing.T) {
	for _, tc := range []struct {
		name, app string
		delta     int
		want      string
	}{
		{"agent lost a grant", "app-inv", -1, "master grants"},
		{"agent holds a phantom", "app-ghost", 2, "unknown to master"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cluster, _, ck := wire(t)
			// A machine the master granted unit 1 on.
			var machine string
			for m := range cluster.Scheduler().Granted("app-inv", 1) {
				if machine == "" || m < machine {
					machine = m
				}
			}
			if machine == "" {
				t.Fatal("setup: unit 1 granted nowhere")
			}
			cluster.Net.SendID(cluster.Net.Endpoint("rogue"), cluster.Net.Endpoint(protocol.AgentEndpoint(machine)), &protocol.CapacityDelta{
				Entries: []protocol.CapacityEntry{{
					App: int32(cluster.Net.Endpoint(tc.app)), UnitID: 1, Size: resource.New(1000, 4096), Count: tc.delta,
				}},
				Epoch: cluster.Primary().Epoch(), Seq: 1,
			})
			cluster.Run(sim.Second)
			bad := strings.Join(ck.CheckLedgers(), "\n")
			if !strings.Contains(bad, tc.want) || !strings.Contains(bad, "machine "+machine+" app "+tc.app) {
				t.Errorf("want a %q violation naming machine %s app %s, got: %s", tc.want, machine, tc.app, bad)
			}
			if len(ck.Violations) == 0 {
				t.Error("violations were not accumulated for end-of-run reporting")
			}
		})
	}
}

// TestUnregisterDuringRecoveryWindow runs the integration-level scenario of
// an app unregistering while a successor is still collecting soft state:
// afterwards no component may retain any trace of the app. (The precisely
// timed unregister-before-restore race is pinned at the unit level by
// master.TestUnregisterBufferedDuringRecovery.)
func TestUnregisterDuringRecoveryWindow(t *testing.T) {
	cluster, am, ck := wire(t)
	cluster.KillPrimaryMaster()
	// Step to the exact promotion instant: the hello broadcast is queued
	// but no agent restore report has been delivered yet.
	for i := 0; cluster.Primary() == nil || cluster.Primary().Epoch() != 2; i++ {
		if i > 1_000_000 {
			t.Fatal("standby never promoted")
		}
		cluster.Run(100 * sim.Microsecond)
	}
	// The successor ends recovery once every machine has anchored, one round
	// trip after its hello; slowing one machine's link holds the window open
	// while the unregister lands, so it takes the buffered branch.
	cluster.Faults.Fire(faults.Fault{Kind: faults.DelaySpike, Targets: []int32{0}, Delay: 50 * sim.Millisecond, For: sim.Second})
	am.Unregister()
	cluster.Run(10 * sim.Second) // recovery window + settle
	if s := cluster.Scheduler(); s == nil || s.Registered("app-inv") {
		t.Fatal("app still registered after buffered unregister replay")
	}
	for _, a := range cluster.Agents {
		name := a.Machine
		a.ForEachAllocation(func(app string, unit, n int) {
			if app == "app-inv" {
				t.Errorf("agent %s still holds %d of unit %d for the unregistered app", name, n, unit)
			}
		})
	}
	if bad := ck.CheckLedgers(); len(bad) != 0 {
		t.Errorf("ledger divergence after unregister-during-recovery: %v", bad)
	}
}

func TestCheckerCheckpointWriteBudget(t *testing.T) {
	cluster, _, ck := wire(t)
	// One app save + one epoch bump happened; a generous budget passes.
	if bad := ck.CheckCheckpointWrites(10); len(bad) != 0 {
		t.Fatalf("budget 10 flagged %d writes: %v", cluster.Ckpt.Writes, bad)
	}
	if bad := ck.CheckCheckpointWrites(0); len(bad) == 0 {
		t.Fatal("zero budget not flagged despite checkpoint writes")
	}
}

// TestCheckerFencesStaleEpochMessages pins the protocol property the
// checker's failover silence depends on: a deposed master's in-flight
// capacity update must be dropped by receivers that saw a newer epoch.
func TestCheckerFencesStaleEpochMessages(t *testing.T) {
	cluster, am, ck := wire(t)
	cluster.KillPrimaryMaster()
	cluster.Run(10 * sim.Second)
	machine := cluster.Top.Machines()[0]
	a := cluster.Agent(machine)
	if a.MasterEpoch() != 2 || am.MasterEpoch() != 2 {
		t.Fatalf("epochs not propagated: agent %d, app %d", a.MasterEpoch(), am.MasterEpoch())
	}
	before := a.Capacity("app-inv", 1)
	// Stale epoch-1 leftovers from the dead primary arrive late.
	cluster.Net.SendID(cluster.Net.Endpoint(protocol.MasterEndpoint), cluster.Net.Endpoint(protocol.AgentEndpoint(machine)), &protocol.CapacityDelta{
		Entries: []protocol.CapacityEntry{{
			App: int32(cluster.Net.Endpoint("app-inv")), UnitID: 1, Size: resource.New(1000, 4096), Count: 3,
		}},
		Epoch: 1, Seq: 999,
	})
	cluster.Net.SendID(cluster.Net.Endpoint(protocol.MasterEndpoint), cluster.Net.Endpoint("app-inv"), &protocol.GrantUpdate{
		App: "app-inv", Epoch: 1, Seq: 999,
		Changes: []protocol.UnitDelta{{UnitID: 1, Machine: cluster.Top.MachineID(machine), Delta: 3}},
	})
	cluster.Run(sim.Second)
	if got := a.Capacity("app-inv", 1); got != before {
		t.Errorf("stale capacity update applied: %d -> %d", before, got)
	}
	if bad := ck.CheckAll(true); len(bad) != 0 {
		t.Errorf("stale-epoch traffic corrupted the ledgers: %v", bad)
	}
}
