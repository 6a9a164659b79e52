package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/job"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/transport"
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

// TestJobMasterRecoveryAssignsDeterministically: a successor re-feeds the
// idle workers it adopted in one order, so one seeded crash and restart sends
// the same assignments to the same workers in the same order every time.
func TestJobMasterRecoveryAssignsDeterministically(t *testing.T) {
	stream := func() string {
		c := newCluster(t, Config{Racks: 2, MachinesPerRack: 2, Seed: 66})
		desc := mapReduceDesc(t, c, "refeed", 12, 1, 1000)
		spec := desc.Tasks["map"]
		spec.MaxWorkers = 6
		desc.Tasks["map"] = spec
		var b strings.Builder
		c.Net.Tap = func(_, to string, msg transport.Message) {
			if a, ok := msg.(job.AssignInstance); ok {
				fmt.Fprintf(&b, "%v %s %s/%d/%d\n", c.Now(), to, a.Task, a.Instance, a.Attempt)
			}
		}
		h, err := c.SubmitJob(desc, JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Crash while the first instances run; they finish during the outage,
		// so the successor adopts six idle workers and requeues their work.
		c.Run(1200 * sim.Millisecond)
		if err := h.CrashJobMaster(); err != nil {
			t.Fatal(err)
		}
		c.Run(2 * sim.Second)
		if err := h.RestartJobMaster(); err != nil {
			t.Fatal(err)
		}
		runToCompletion(t, c, h, 5*sim.Minute)
		return b.String()
	}
	want := stream()
	for i := 1; i < 20; i++ {
		if got := stream(); got != want {
			t.Fatalf("run %d sent another assignment stream:\n%s\nfirst run:\n%s", i, got, want)
		}
	}
}

// TestJobMasterIncarnationsMintDistinctWorkerIDs: two successors that come up
// with the same number of live workers still number their workers apart (the
// job's snapshot store keeps the last number), so a successor's work plan
// never reaches a worker an earlier incarnation minted.
func TestJobMasterIncarnationsMintDistinctWorkerIDs(t *testing.T) {
	c := newCluster(t, Config{Racks: 2, MachinesPerRack: 2, Seed: 67})
	desc := mapReduceDesc(t, c, "gens", 4, 1, 1000)
	minted := map[uint32]int{}
	c.Net.Tap = func(_, _ string, msg transport.Message) {
		if p, ok := msg.(protocol.WorkPlan); ok {
			minted[p.Worker]++
		}
	}
	h, err := c.SubmitJob(desc, JobOptions{Config: job.Config{FullSyncInterval: sim.Second}})
	if err != nil {
		t.Fatal(err)
	}
	// Each incarnation dies before its workers report running, so both
	// successors start with the same live count.
	var live []int
	for _, up := range []sim.Time{100 * sim.Millisecond, 3300 * sim.Millisecond} {
		c.Run(up)
		if err := h.CrashJobMaster(); err != nil {
			t.Fatal(err)
		}
		live = append(live, h.Rt.Live())
		if err := h.RestartJobMaster(); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(4 * sim.Second)
	if live[0] != live[1] {
		t.Fatalf("live workers at the restarts %v, want equal", live)
	}
	for id, n := range minted {
		if n > 1 {
			t.Errorf("worker %d minted %d times", id, n)
		}
	}
	if len(minted) == 0 {
		t.Fatal("no work plan was sent")
	}
}

func TestSlowdownHelpers(t *testing.T) {
	c := newCluster(t, Config{Racks: 1, MachinesPerRack: 1, Seed: 65})
	if c.Slowdown(0) != 1 {
		t.Error("default slowdown != 1")
	}
	c.Faults.Fire(faults.Fault{Kind: faults.SlowMachine, Targets: []int32{0}, Factor: 4, For: sim.Second})
	if c.Slowdown(0) != 4 {
		t.Error("slowdown not applied")
	}
	c.Run(2 * sim.Second) // the window closes
	if c.Slowdown(0) != 1 {
		t.Error("slowdown not cleared")
	}
	for _, ghost := range []int32{-1, int32(c.Top.Size())} {
		if c.Slowdown(ghost) != 1 {
			t.Errorf("machine %d outside the topology slowed", ghost)
		}
		if c.ProcAlive(ghost, 0, 1) {
			t.Errorf("machine %d outside the topology alive", ghost)
		}
	}
}
