package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/job"
	"repro/internal/sim"
)

func TestJobHandleAPIErrors(t *testing.T) {
	c := newCluster(t, Config{Racks: 1, MachinesPerRack: 2, Seed: 61})
	desc := mapReduceDesc(t, c, "handle", 2, 1, 500)
	h, err := c.SubmitJob(desc, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.RestartJobMaster(); err == nil {
		t.Error("restart with live JobMaster accepted")
	}
	if err := h.CrashJobMaster(); err != nil {
		t.Fatal(err)
	}
	if err := h.CrashJobMaster(); err == nil {
		t.Error("double crash accepted")
	}
	if err := h.RestartJobMaster(); err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, c, h, 5*sim.Minute)
	if h.ElapsedSeconds() <= 0 {
		t.Error("elapsed unset")
	}
}

func TestOnJobDoneAfterCompletionFiresImmediately(t *testing.T) {
	c := newCluster(t, Config{Racks: 1, MachinesPerRack: 2, Seed: 62})
	desc := mapReduceDesc(t, c, "late", 2, 1, 300)
	h, err := c.SubmitJob(desc, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, c, h, 5*sim.Minute)
	fired := false
	h.OnJobDone(func() { fired = true })
	if !fired {
		t.Error("late OnJobDone not fired immediately")
	}
}

func TestSubmitInvalidJobRejected(t *testing.T) {
	c := newCluster(t, Config{Racks: 1, MachinesPerRack: 1, Seed: 63})
	bad := &job.Description{Name: "bad"} // no tasks
	if _, err := c.SubmitJob(bad, JobOptions{}); err == nil {
		t.Error("invalid description accepted")
	}
}

func TestJobMasterFailoverDuringReducePhase(t *testing.T) {
	// Crash the JobMaster after the map task completed: the successor's
	// snapshot restore must keep map marked done and resume reduce only.
	c := newCluster(t, Config{Racks: 2, MachinesPerRack: 2, Seed: 64})
	desc := mapReduceDesc(t, c, "midcrash", 6, 6, 3000)
	h, err := c.SubmitJob(desc, JobOptions{Config: job.Config{FullSyncInterval: 2 * sim.Second}})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for map to finish.
	for i := 0; i < 200; i++ {
		c.Run(sim.Second)
		if d, n := h.JM.TaskProgress("map"); d == n {
			break
		}
	}
	if d, n := h.JM.TaskProgress("map"); d != n {
		t.Fatal("map never completed")
	}
	if h.Done() {
		t.Skip("job finished before the crash point")
	}
	if err := h.CrashJobMaster(); err != nil {
		t.Fatal(err)
	}
	c.Run(2 * sim.Second)
	if err := h.RestartJobMaster(); err != nil {
		t.Fatal(err)
	}
	c.Run(sim.Second)
	if d, n := h.JM.TaskProgress("map"); d != n {
		t.Errorf("map progress lost across failover: %d/%d", d, n)
	}
	runToCompletion(t, c, h, 15*sim.Minute)
}

func TestSlowdownHelpers(t *testing.T) {
	c := newCluster(t, Config{Racks: 1, MachinesPerRack: 1, Seed: 65})
	if c.Slowdown("r000m000") != 1 {
		t.Error("default slowdown != 1")
	}
	c.Faults.Fire(faults.Fault{Kind: faults.SlowMachine, Targets: []int32{0}, Factor: 4, For: sim.Second})
	if c.Slowdown("r000m000") != 4 {
		t.Error("slowdown not applied")
	}
	c.Run(2 * sim.Second) // the window closes
	if c.Slowdown("r000m000") != 1 {
		t.Error("slowdown not cleared")
	}
	if c.Slowdown("ghost-machine") != 1 {
		t.Error("unknown machine slowed")
	}
	if c.ProcAlive("ghost-machine", "w") {
		t.Error("unknown machine alive")
	}
}
