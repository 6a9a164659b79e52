package core

import (
	"fmt"
	"testing"

	"repro/internal/appmaster"
	"repro/internal/faults"
	"repro/internal/master"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/transport"
)

func newCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func simpleUnit(id, pri, max int) resource.ScheduleUnit {
	return resource.ScheduleUnit{ID: id, Priority: pri, MaxCount: max, Size: resource.New(1000, 2048)}
}

func clusterHint(n int) resource.LocalityHint {
	return resource.LocalityHint{Type: resource.LocalityCluster, Count: n}
}

func TestEndToEndGrantFlow(t *testing.T) {
	c := newCluster(t, Config{Racks: 2, MachinesPerRack: 2, Seed: 1})
	var grants int
	am := c.NewAppMaster(appmaster.Config{
		App: "app1", Units: []resource.ScheduleUnit{simpleUnit(1, 100, 10)},
	}, cbFuncs{
		Grant: func(unitID int, machine int32, count int) { grants += count },
	})
	c.Run(100 * sim.Millisecond)
	am.Request(1, clusterHint(10))
	c.Run(sim.Second)
	if grants != 10 {
		t.Fatalf("grants = %d, want 10", grants)
	}
	if am.HeldTotal(1) != 10 {
		t.Fatalf("held = %d", am.HeldTotal(1))
	}
	if got := c.Scheduler().Held("app1", 1); got != 10 {
		t.Fatalf("master view = %d", got)
	}
}

func TestEndToEndWorkerLifecycle(t *testing.T) {
	c := newCluster(t, Config{Racks: 1, MachinesPerRack: 2, Seed: 2})
	var am *appmaster.AM
	running := map[string]bool{}
	am = c.NewAppMaster(appmaster.Config{
		App: "app1", Units: []resource.ScheduleUnit{simpleUnit(1, 100, 4)},
	}, cbFuncs{
		Grant: func(unitID int, machine int32, count int) {
			for i := 0; i < count; i++ {
				am.StartWorker(unitID, machine, fmt.Sprintf("w-%d-%d", machine, i))
			}
		},
		Worker: func(s protocol.WorkerStatus) {
			if s.State == protocol.WorkerRunning {
				running[s.WorkerID] = true
			}
		},
	})
	c.Run(100 * sim.Millisecond)
	am.Request(1, clusterHint(4))
	c.Run(5 * sim.Second)
	if len(running) != 4 {
		t.Fatalf("running workers = %d, want 4", len(running))
	}
	// Agents actually hold the processes.
	procs := 0
	for _, a := range c.Agents {
		procs += len(a.Procs())
	}
	if procs != 4 {
		t.Fatalf("agent procs = %d, want 4", procs)
	}
}

func TestReturnTriggersReassignment(t *testing.T) {
	c := newCluster(t, Config{Racks: 1, MachinesPerRack: 1, Seed: 3})
	am1 := c.NewAppMaster(appmaster.Config{
		App: "app1", Units: []resource.ScheduleUnit{simpleUnit(1, 100, 12)},
	}, appmaster.NoCallbacks{})
	got2 := 0
	am2 := c.NewAppMaster(appmaster.Config{
		App: "app2", Units: []resource.ScheduleUnit{simpleUnit(1, 100, 3)},
	}, cbFuncs{
		Grant: func(_ int, _ int32, count int) { got2 += count },
	})
	c.Run(100 * sim.Millisecond)
	am1.Request(1, clusterHint(12)) // fills the single machine
	c.Run(sim.Second)
	am2.Request(1, clusterHint(3))
	c.Run(sim.Second)
	if got2 != 0 {
		t.Fatalf("app2 granted %d from a full cluster", got2)
	}
	am1.ReturnContainers(1, c.Top.MachineID("r000m000"), 3)
	c.Run(sim.Second)
	if got2 != 3 {
		t.Fatalf("app2 granted %d after return, want 3", got2)
	}
}

func TestMasterFailoverPreservesAllocations(t *testing.T) {
	c := newCluster(t, Config{Racks: 1, MachinesPerRack: 2, Seed: 4, Standby: true})
	grants, revokes := 0, 0
	am := c.NewAppMaster(appmaster.Config{
		App:   "app1",
		Units: []resource.ScheduleUnit{simpleUnit(1, 100, 8)},
		// Frequent full sync accelerates state repair in the test.
		FullSyncInterval: 2 * sim.Second,
	}, cbFuncs{
		Grant:  func(_ int, _ int32, n int) { grants += n },
		Revoke: func(_ int, _ int32, n int) { revokes += n },
	})
	c.Run(100 * sim.Millisecond)
	am.Request(1, clusterHint(8))
	c.Run(2 * sim.Second)
	if grants != 8 {
		t.Fatalf("grants = %d, want 8", grants)
	}

	old := c.KillPrimaryMaster()
	if old == nil {
		t.Fatal("no primary to kill")
	}
	// Lease TTL is 3s; recovery window 2s. Run well past both.
	c.Run(15 * sim.Second)

	p := c.Primary()
	if p == nil {
		t.Fatal("no new primary after failover")
	}
	if p == old {
		t.Fatal("dead master still primary")
	}
	// Paper §4.3.1: "keeping all resource allocation and existing
	// processes stable" — no revocations, and the new master's ledger
	// matches the app's.
	if revokes != 0 {
		t.Errorf("revocations during failover = %d, want 0", revokes)
	}
	if am.HeldTotal(1) != 8 {
		t.Errorf("app held = %d after failover", am.HeldTotal(1))
	}
	if got := p.Scheduler().Held("app1", 1); got != 8 {
		t.Errorf("new master ledger = %d, want 8", got)
	}
	if bad := p.Scheduler().CheckInvariants(); len(bad) > 0 {
		t.Errorf("invariants after failover: %v", bad)
	}
}

func TestMasterFailoverServesQueuedDemand(t *testing.T) {
	// Demand still waiting at crash time must eventually be served by the
	// new primary (the AM re-sends its full demand).
	c := newCluster(t, Config{Racks: 1, MachinesPerRack: 1, Seed: 5, Standby: true})
	grants := 0
	am := c.NewAppMaster(appmaster.Config{
		App:              "app1",
		Units:            []resource.ScheduleUnit{simpleUnit(1, 100, 20)},
		FullSyncInterval: 2 * sim.Second,
	}, cbFuncs{
		Grant: func(_ int, _ int32, n int) { grants += n },
	})
	c.Run(100 * sim.Millisecond)
	am.Request(1, clusterHint(20)) // only 12 fit on one machine
	c.Run(sim.Second)
	if grants != 12 {
		t.Fatalf("grants = %d, want 12", grants)
	}
	c.KillPrimaryMaster()
	c.Run(10 * sim.Second)
	// Free the machine: the new master must grant the queued remainder.
	am.ReturnContainers(1, c.Top.MachineID("r000m000"), 12)
	c.Run(5 * sim.Second)
	if am.HeldTotal(1) != 8 {
		t.Errorf("held = %d after failover+return, want 8 (queued remainder)", am.HeldTotal(1))
	}
}

func TestNodeDownDetectedAndRevoked(t *testing.T) {
	c := newCluster(t, Config{Racks: 1, MachinesPerRack: 2, Seed: 6})
	revoked := map[string]int{}
	am := c.NewAppMaster(appmaster.Config{
		App: "app1", Units: []resource.ScheduleUnit{simpleUnit(1, 100, 24)},
	}, cbFuncs{
		Revoke: func(_ int, machine int32, n int) { revoked[c.Top.MachineName(machine)] += n },
	})
	c.Run(100 * sim.Millisecond)
	am.Request(1, clusterHint(24))
	c.Run(2 * sim.Second)
	if am.HeldTotal(1) != 24 {
		t.Fatalf("held = %d", am.HeldTotal(1))
	}
	c.KillMachine("r000m000")
	// Heartbeat timeout is 3s + scan period.
	c.Run(10 * sim.Second)
	if revoked["r000m000"] != 12 {
		t.Errorf("revoked on dead machine = %d, want 12", revoked["r000m000"])
	}
	if am.HeldTotal(1) != 12 {
		t.Errorf("held = %d after node death, want 12", am.HeldTotal(1))
	}
	if !c.Scheduler().Down(c.Top.MachineID("r000m000")) {
		t.Error("master does not consider machine down")
	}

	// Node recovers: heartbeats resume, machine returns to the pool.
	c.RestartMachine("r000m000")
	c.Run(5 * sim.Second)
	if c.Scheduler().Down(c.Top.MachineID("r000m000")) {
		t.Error("machine still down after recovery")
	}
}

func TestHealthScoreBlacklisting(t *testing.T) {
	c := newCluster(t, Config{Racks: 1, MachinesPerRack: 2, Seed: 7})
	c.Run(sim.Second)
	c.Agent("r000m000").SetHealth(5) // sick but alive
	c.Run(10 * sim.Second)
	if !c.Scheduler().Blacklisted(c.Top.MachineID("r000m000")) {
		t.Fatal("sick machine not blacklisted")
	}
	// New demand avoids it.
	am := c.NewAppMaster(appmaster.Config{
		App: "app1", Units: []resource.ScheduleUnit{simpleUnit(1, 100, 24)},
	}, appmaster.NoCallbacks{})
	c.Run(100 * sim.Millisecond)
	am.Request(1, clusterHint(24))
	c.Run(sim.Second)
	if am.Held(1, c.Top.MachineID("r000m000")) != 0 {
		t.Error("grant on blacklisted machine")
	}
	if am.HeldTotal(1) != 12 {
		t.Errorf("held = %d, want 12", am.HeldTotal(1))
	}
	// Recovery rehabilitates it.
	c.Agent("r000m000").SetHealth(100)
	c.Run(10 * sim.Second)
	if c.Scheduler().Blacklisted(c.Top.MachineID("r000m000")) {
		t.Error("recovered machine still blacklisted")
	}
	if am.HeldTotal(1) != 24 {
		t.Errorf("held = %d after rehabilitation, want 24", am.HeldTotal(1))
	}
}

func TestBadMachineVotesBlacklist(t *testing.T) {
	c := newCluster(t, Config{Racks: 1, MachinesPerRack: 2, Seed: 8})
	am1 := c.NewAppMaster(appmaster.Config{App: "app1", Units: []resource.ScheduleUnit{simpleUnit(1, 100, 1)}}, appmaster.NoCallbacks{})
	am2 := c.NewAppMaster(appmaster.Config{App: "app2", Units: []resource.ScheduleUnit{simpleUnit(1, 100, 1)}}, appmaster.NoCallbacks{})
	c.Run(100 * sim.Millisecond)
	am1.ReportBadMachine(c.Top.MachineID("r000m001"))
	c.Run(sim.Second)
	if c.Scheduler().Blacklisted(c.Top.MachineID("r000m001")) {
		t.Fatal("single vote blacklisted the machine")
	}
	am2.ReportBadMachine(c.Top.MachineID("r000m001"))
	c.Run(sim.Second)
	if !c.Scheduler().Blacklisted(c.Top.MachineID("r000m001")) {
		t.Fatal("two distinct app votes did not blacklist")
	}
}

func TestProtocolSurvivesLossAndDuplication(t *testing.T) {
	// 5% loss, 5% duplication: the incremental protocol with periodic full
	// sync must still converge to the correct allocation.
	c := newCluster(t, Config{Racks: 2, MachinesPerRack: 2, Seed: 9})
	c.Net.DropRate, c.Net.DupRate = 0.05, 0.05
	am := c.NewAppMaster(appmaster.Config{
		App:              "app1",
		Units:            []resource.ScheduleUnit{simpleUnit(1, 100, 30)},
		FullSyncInterval: sim.Second,
	}, appmaster.NoCallbacks{})
	c.Run(200 * sim.Millisecond)
	am.Request(1, clusterHint(30))
	c.Run(30 * sim.Second)
	if am.HeldTotal(1) != 30 {
		t.Errorf("held = %d, want 30 despite lossy network", am.HeldTotal(1))
	}
	s := c.Scheduler()
	if got := s.Held("app1", 1); got != 30 {
		t.Errorf("master ledger = %d, want 30", got)
	}
	if bad := s.CheckInvariants(); len(bad) > 0 {
		t.Errorf("invariants: %v", bad)
	}
}

func TestAgentDaemonFailoverEndToEnd(t *testing.T) {
	c := newCluster(t, Config{Racks: 1, MachinesPerRack: 1, Seed: 10})
	var am *appmaster.AM
	am = c.NewAppMaster(appmaster.Config{
		App: "app1", Units: []resource.ScheduleUnit{simpleUnit(1, 100, 2)},
	}, cbFuncs{
		Grant: func(unitID int, machine int32, count int) {
			for i := 0; i < count; i++ {
				am.StartWorker(unitID, machine, fmt.Sprintf("w%d", am.HeldTotal(unitID)*10+i))
			}
		},
	})
	c.Run(100 * sim.Millisecond)
	am.Request(1, clusterHint(2))
	c.Run(3 * sim.Second)
	a := c.Agent("r000m000")
	if len(a.Procs()) != 2 {
		t.Fatalf("procs = %d", len(a.Procs()))
	}
	a.CrashDaemon()
	c.Run(sim.Second)
	if len(a.Procs()) != 2 {
		t.Fatal("processes died with the daemon")
	}
	a.RestartDaemon()
	c.Run(3 * sim.Second)
	// Adoption: processes still running, capacity relearned from master.
	if len(a.Procs()) != 2 {
		t.Errorf("procs after failover = %d, want 2 (adopted)", len(a.Procs()))
	}
	if a.Capacity("app1", 1) != 2 {
		t.Errorf("capacity after failover = %d, want 2", a.Capacity("app1", 1))
	}
}

func TestUtilizationAccountingConsistent(t *testing.T) {
	c := newCluster(t, Config{Racks: 2, MachinesPerRack: 3, Seed: 11})
	var am *appmaster.AM
	started := 0
	am = c.NewAppMaster(appmaster.Config{
		App: "app1", Units: []resource.ScheduleUnit{simpleUnit(1, 100, 50)},
	}, cbFuncs{
		Grant: func(unitID int, machine int32, count int) {
			for i := 0; i < count; i++ {
				started++
				am.StartWorker(unitID, machine, fmt.Sprintf("w%d", started))
			}
		},
	})
	c.Run(100 * sim.Millisecond)
	am.Request(1, clusterHint(50))
	c.Run(5 * sim.Second)
	planned := c.FMPlanned()
	obtained := am.ObtainedTotal()
	faPlanned := c.FAPlanned()
	want := resource.New(1000, 2048).Scale(50)
	if !planned.Equal(want) {
		t.Errorf("FM_planned = %v, want %v", planned, want)
	}
	if !obtained.Equal(want) {
		t.Errorf("AM_obtained = %v, want %v", obtained, want)
	}
	if !faPlanned.Equal(want) {
		t.Errorf("FA_planned = %v, want %v", faPlanned, want)
	}
}

// TestCallerSetMasterFieldsSurvive: the callbacks a caller sets in
// Config.Master reach both processes of the pair. (The assembler used to
// replace the whole master config with the defaults, keeping only Sched and
// BatchWindow.)
func TestCallerSetMasterFieldsSurvive(t *testing.T) {
	var c *Cluster
	epoch, promoted, at := 0, sim.Time(0), sim.Time(0)
	c = newCluster(t, Config{
		Racks: 1, MachinesPerRack: 2, Seed: 5, Standby: true,
		Master: master.Config{
			OnRecovered: func(e, reissued int) { epoch, at = e, c.Now() },
		},
	})
	// The successor says hello to every agent as it promotes.
	c.Net.Tap = func(_, _ string, msg transport.Message) {
		if h, ok := msg.(protocol.MasterHello); ok && h.Epoch == 2 && promoted == 0 {
			promoted = c.Now()
		}
	}
	c.Run(sim.Second)
	// A dead machine never anchors to the successor, so its recovery runs to
	// the window's deadline instead of ending once everyone has reported.
	c.Faults.Fire(faults.Fault{Kind: faults.NodeDown, Targets: []int32{1}})
	killed := c.Now()
	if c.KillPrimaryMaster() == nil {
		t.Fatal("no primary to kill")
	}
	c.Run(10 * sim.Second)
	if c.Primary() == nil || epoch != 2 {
		t.Fatalf("caller-set OnRecovered saw epoch %d after the failover (a primary leads: %v), want 2", epoch, c.Primary() != nil)
	}
	// The lease expires within LockTTL of the crash; recovery then runs to
	// the RecoveryWindow deadline.
	if promoted-killed > master.LockTTL {
		t.Errorf("promoted %v after the crash, want within LockTTL %v", promoted-killed, master.LockTTL)
	}
	if took := at - promoted; took != master.RecoveryWindow {
		t.Errorf("recovered %v after the promotion, want the %v window", took, master.RecoveryWindow)
	}
}

func TestBadConfigRejected(t *testing.T) {
	if _, err := NewCluster(Config{Racks: 0, MachinesPerRack: 5}); err == nil {
		t.Error("zero racks accepted")
	}
}

// cbFuncs adapts func literals to appmaster.Callbacks for tests that react
// to an event or two; nil fields ignore theirs.
type cbFuncs struct {
	Grant   func(unitID int, machine int32, count int)
	Revoke  func(unitID int, machine int32, count int)
	Worker  func(protocol.WorkerStatus)
	Message func(from string, msg any)
}

func (c cbFuncs) OnGrant(unitID int, machine int32, count int) {
	if c.Grant != nil {
		c.Grant(unitID, machine, count)
	}
}

func (c cbFuncs) OnRevoke(unitID int, machine int32, count int) {
	if c.Revoke != nil {
		c.Revoke(unitID, machine, count)
	}
}

func (c cbFuncs) OnWorker(s protocol.WorkerStatus) {
	if c.Worker != nil {
		c.Worker(s)
	}
}

func (c cbFuncs) OnMessage(from string, msg any) {
	if c.Message != nil {
		c.Message(from, msg)
	}
}
