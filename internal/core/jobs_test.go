package core

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/faults"
	"repro/internal/job"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/transport"
)

// mapReduceDesc builds a two-stage map/reduce-shaped job description with an
// input file on the cluster's DFS.
func mapReduceDesc(t *testing.T, c *Cluster, name string, maps, reduces int, durMS int64) *job.Description {
	t.Helper()
	if _, err := c.FS.Create("pangu://"+name+"/input", int64(maps)*256); err != nil {
		t.Fatal(err)
	}
	return &job.Description{
		Name: name,
		Tasks: map[string]job.TaskSpec{
			"map":    {Instances: maps, CPUMilli: 500, MemoryMB: 2048, DurationMS: durMS},
			"reduce": {Instances: reduces, CPUMilli: 500, MemoryMB: 2048, DurationMS: durMS},
		},
		Pipes: []job.Pipe{
			{Source: job.AccessPoint{FilePattern: "pangu://" + name + "/input"},
				Destination: job.AccessPoint{AccessPoint: "map:input"}},
			{Source: job.AccessPoint{AccessPoint: "map:out"},
				Destination: job.AccessPoint{AccessPoint: "reduce:in"}},
			{Source: job.AccessPoint{AccessPoint: "reduce:out"},
				Destination: job.AccessPoint{FilePattern: "pangu://" + name + "/output"}},
		},
	}
}

func runToCompletion(t *testing.T, c *Cluster, h *JobHandle, limit sim.Time) {
	t.Helper()
	deadline := c.Now() + limit
	for !h.Done() && c.Now() < deadline {
		c.Run(sim.Second)
	}
	if !h.Done() {
		report := "job not done"
		if h.JM != nil {
			for task := range h.Desc.Tasks {
				d, n := h.JM.TaskProgress(task)
				report += fmt.Sprintf(" %s=%d/%d", task, d, n)
			}
		}
		t.Fatal(report)
	}
}

func TestJobRunsToCompletion(t *testing.T) {
	c := newCluster(t, Config{Racks: 2, MachinesPerRack: 3, Seed: 21})
	desc := mapReduceDesc(t, c, "mr1", 8, 2, 500)
	h, err := c.SubmitJob(desc, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, c, h, 5*sim.Minute)
	if h.ElapsedSeconds() <= 0 {
		t.Error("elapsed not recorded")
	}
	// All resources returned to the cluster.
	c.Run(2 * sim.Second)
	if planned := c.FMPlanned(); !planned.IsZero() {
		t.Errorf("resources leaked after job: %v", planned)
	}
	if bad := c.Scheduler().CheckInvariants(); len(bad) > 0 {
		t.Errorf("invariants: %v", bad)
	}
}

func TestDAGOrdering(t *testing.T) {
	// Diamond DAG: T1 -> {T2,T3} -> T4; completion implies ordering held
	// (downstream tasks cannot start before upstream completes).
	c := newCluster(t, Config{Racks: 1, MachinesPerRack: 4, Seed: 22})
	desc := &job.Description{
		Name: "diamond",
		Tasks: map[string]job.TaskSpec{
			"T1": {Instances: 4, CPUMilli: 1000, MemoryMB: 2048, DurationMS: 300},
			"T2": {Instances: 2, CPUMilli: 1000, MemoryMB: 2048, DurationMS: 300},
			"T3": {Instances: 2, CPUMilli: 1000, MemoryMB: 2048, DurationMS: 300},
			"T4": {Instances: 1, CPUMilli: 1000, MemoryMB: 2048, DurationMS: 300},
		},
		Pipes: []job.Pipe{
			{Source: job.AccessPoint{AccessPoint: "T1:a"}, Destination: job.AccessPoint{AccessPoint: "T2:a"}},
			{Source: job.AccessPoint{AccessPoint: "T1:b"}, Destination: job.AccessPoint{AccessPoint: "T3:a"}},
			{Source: job.AccessPoint{AccessPoint: "T2:o"}, Destination: job.AccessPoint{AccessPoint: "T4:a"}},
			{Source: job.AccessPoint{AccessPoint: "T3:o"}, Destination: job.AccessPoint{AccessPoint: "T4:b"}},
		},
	}
	h, err := c.SubmitJob(desc, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// While T1 runs, T4 must not have started.
	c.Run(2 * sim.Second)
	if d1, _ := h.JM.TaskProgress("T1"); d1 < 4 {
		if d4, _ := h.JM.TaskProgress("T4"); d4 != 0 {
			t.Error("T4 progressed before T1 finished")
		}
	}
	runToCompletion(t, c, h, 5*sim.Minute)
}

func TestJobStartDelayModelsJMStartOverhead(t *testing.T) {
	c := newCluster(t, Config{Racks: 1, MachinesPerRack: 2, Seed: 23})
	desc := mapReduceDesc(t, c, "mr2", 2, 1, 200)
	h, err := c.SubmitJob(desc, JobOptions{StartDelay: 2 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(sim.Second)
	if h.JM != nil {
		t.Error("JobMaster up before start delay")
	}
	runToCompletion(t, c, h, 5*sim.Minute)
	if got := (h.StartedAt - h.SubmittedAt).Seconds(); got < 2 {
		t.Errorf("JM start overhead = %.2fs, want >= 2", got)
	}
}

func TestContainerReuseAcrossInstances(t *testing.T) {
	// 8 instances, 2 workers: each worker must run multiple instances in
	// the same container (paper §3.2.3).
	c := newCluster(t, Config{Racks: 1, MachinesPerRack: 1, Seed: 24})
	desc := mapReduceDesc(t, c, "mr3", 8, 1, 200)
	spec := desc.Tasks["map"]
	spec.MaxWorkers = 2
	desc.Tasks["map"] = spec
	h, err := c.SubmitJob(desc, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, c, h, 10*sim.Minute)
	// With 2 containers and 8 instances the job could only finish through
	// reuse; live worker sims never exceeded MaxWorkers.
	if h.Rt.Live() > 3 {
		t.Errorf("live workers = %d, want <= 3", h.Rt.Live())
	}
}

func TestJobMasterFailoverTransparent(t *testing.T) {
	c := newCluster(t, Config{Racks: 2, MachinesPerRack: 2, Seed: 25})
	desc := mapReduceDesc(t, c, "mrfo", 6, 2, 3000)
	h, err := c.SubmitJob(desc, JobOptions{Config: job.Config{FullSyncInterval: 2 * sim.Second}})
	if err != nil {
		t.Fatal(err)
	}
	// Let maps get going.
	c.Run(3 * sim.Second)
	if h.Done() {
		t.Fatal("job finished too early for the test")
	}
	liveBefore := h.Rt.Live()
	if liveBefore == 0 {
		t.Fatal("no workers before crash")
	}
	if err := h.CrashJobMaster(); err != nil {
		t.Fatal(err)
	}
	// Workers keep running during the outage.
	c.Run(2 * sim.Second)
	if h.Rt.Live() == 0 {
		t.Fatal("workers died with the JobMaster")
	}
	if err := h.RestartJobMaster(); err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, c, h, 10*sim.Minute)
	if bad := c.Scheduler().CheckInvariants(); len(bad) > 0 {
		t.Errorf("invariants: %v", bad)
	}
}

func TestJobSurvivesNodeDeath(t *testing.T) {
	c := newCluster(t, Config{Racks: 2, MachinesPerRack: 2, Seed: 26})
	desc := mapReduceDesc(t, c, "mrnode", 8, 2, 4000)
	h, err := c.SubmitJob(desc, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(3 * sim.Second)
	// Kill a machine running workers.
	var victim string
	for _, a := range c.Agents {
		if len(a.Procs()) > 0 {
			victim = a.Machine
			break
		}
	}
	if victim == "" {
		t.Fatal("no machine with workers")
	}
	c.KillMachine(victim)
	runToCompletion(t, c, h, 15*sim.Minute)
}

func TestBackupInstancesRescueStraggler(t *testing.T) {
	c := newCluster(t, Config{Racks: 3, MachinesPerRack: 4, Seed: 27})
	// Wide single-stage job: the paper's backup criteria need a meaningful
	// population of finished instances (90 %) to estimate the average
	// duration from, so the slow machine's share of the instances (two of
	// 24, spread over 12 machines) must stay under a tenth.
	desc := &job.Description{
		Name: "mrslow",
		Tasks: map[string]job.TaskSpec{
			"map": {Instances: 24, CPUMilli: 500, MemoryMB: 2048, DurationMS: 1000, NormalDurationMS: 2000},
		},
	}
	// Make one machine pathologically slow before the job starts.
	c.Faults.Fire(faults.Fault{Kind: faults.SlowMachine, Targets: []int32{0}, Factor: 50})
	h, err := c.SubmitJob(desc, JobOptions{Config: job.Config{
		Backup: job.BackupConfig{Enabled: true, ScanInterval: sim.Second},
	}})
	if err != nil {
		t.Fatal(err)
	}
	runToCompletion(t, c, h, 10*sim.Minute)
	launched, wins := h.JM.BackupStats()
	if launched == 0 {
		t.Error("no backup instances launched despite a 50x slow machine")
	}
	if wins == 0 {
		t.Error("backup never beat the straggler")
	}
	// Without backups the stragglers would take ~50 s; with them the job
	// should finish much earlier.
	if h.ElapsedSeconds() > 40 {
		t.Errorf("elapsed %.1fs with backups, expected < 40s", h.ElapsedSeconds())
	}
}

func TestWorkerCrashRescheduledAndBlacklisted(t *testing.T) {
	c := newCluster(t, Config{Racks: 2, MachinesPerRack: 2, Seed: 28})
	desc := mapReduceDesc(t, c, "mrcrash", 6, 1, 2000)
	h, err := c.SubmitJob(desc, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(3 * sim.Second)
	// Repeatedly crash every worker that lands on one machine.
	bad := "r000m000"
	crashes := 0
	for i := 0; i < 40 && !h.Done(); i++ {
		if a := c.Agent(bad); a != nil {
			for id := range a.Procs() {
				a.CrashWorker(id, "disk error")
				crashes++
			}
		}
		c.Run(sim.Second)
	}
	runToCompletion(t, c, h, 15*sim.Minute)
	if crashes == 0 {
		t.Skip("no workers ever landed on the bad machine")
	}
}

func TestJobLevelBlacklistEscalatesToMaster(t *testing.T) {
	c := newCluster(t, Config{Racks: 2, MachinesPerRack: 2, Seed: 29})
	// Two jobs, each experiencing failures on the same machine, must
	// escalate it into the cluster blacklist (two reporting applications).
	// A job escalates a machine once two of its tasks have blacklisted it,
	// each after three distinct instances failed there: each job runs two
	// tasks side by side, wide enough that three of each task's first wave
	// land on the bad machine.
	bad := "r000m000"
	mk := func(name string) *JobHandle {
		desc := &job.Description{Name: name, Tasks: map[string]job.TaskSpec{
			"scan":  {Instances: 12, CPUMilli: 500, MemoryMB: 2048, DurationMS: 5000},
			"index": {Instances: 12, CPUMilli: 500, MemoryMB: 2048, DurationMS: 5000},
		}}
		h, err := c.SubmitJob(desc, JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	h1 := mk("blj1")
	h2 := mk("blj2")
	for i := 0; i < 200 && !(h1.Done() && h2.Done()); i++ {
		if a := c.Agent(bad); a != nil {
			ids := make([]string, 0, len(a.Procs()))
			for id := range a.Procs() {
				ids = append(ids, id)
			}
			sort.Strings(ids)
			for _, id := range ids {
				// Crash only busy workers: instance failures are what the
				// multi-level blacklist counts.
				if a.Proc(id) != nil && a.Proc(id).State == protocol.WorkerRunning {
					a.CrashWorker(id, "disk hang")
				}
			}
		}
		c.Run(sim.Second)
	}
	runToCompletion(t, c, h1, 15*sim.Minute)
	runToCompletion(t, c, h2, 15*sim.Minute)
	if !c.Scheduler().Blacklisted(c.Top.MachineID(bad)) {
		t.Error("machine not escalated to cluster blacklist")
	}
}

// TestLastInstancesLeaveABadMachine: a task whose last instances keep
// failing on one machine must finish elsewhere. The task blacklists a
// machine only after three distinct instances failed there, so once fewer
// than three are left that never happens; an instance must therefore not be
// handed back to a machine it already failed on while the task can run it
// elsewhere. (Reusing the container of the failed worker used to hand the
// same two instances to the same machine forever.)
func TestLastInstancesLeaveABadMachine(t *testing.T) {
	c := newCluster(t, Config{Racks: 2, MachinesPerRack: 2, Seed: 29})
	bad := "r000m000"
	h, err := c.SubmitJob(&job.Description{Name: "last", Tasks: map[string]job.TaskSpec{
		"scan": {Instances: 8, CPUMilli: 500, MemoryMB: 2048, DurationMS: 5000},
	}}, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	crashes := 0
	for i := 0; i < 600 && !h.Done(); i++ {
		a := c.Agent(bad)
		ids := make([]string, 0, len(a.Procs()))
		for id := range a.Procs() {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			if a.Proc(id) != nil && a.Proc(id).State == protocol.WorkerRunning {
				a.CrashWorker(id, "disk hang")
				crashes++
			}
		}
		c.Run(sim.Second)
	}
	if !h.Done() {
		d, n := h.JM.TaskProgress("scan")
		t.Fatalf("task still running after 600 s and %d crashes on %s: %d/%d instances done", crashes, bad, d, n)
	}
	if crashes == 0 {
		t.Fatal("no worker ever ran on the bad machine: the scenario tested nothing")
	}
}

// TestInstanceReportOutsideTopologyDroppedWhole: the JobMaster drops a
// worker's report naming a machine the topology does not hold before it
// touches a task: a completion completes no instance, and an idle report from
// a worker it does not know reaps nothing and interns no agent endpoint. The
// same reports about a machine of the topology are applied.
func TestInstanceReportOutsideTopologyDroppedWhole(t *testing.T) {
	c := newCluster(t, Config{Racks: 1, MachinesPerRack: 2, Seed: 31})
	h, err := c.SubmitJob(mapReduceDesc(t, c, "mr", 2, 1, 60_000), JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(5 * sim.Second)
	app, from := c.Net.Lookup("mr"), c.Net.Endpoint("probe")
	slots, _ := c.Net.Footprint()
	stops := 0
	c.Net.Tap = func(from, _ string, msg transport.Message) {
		if _, ok := msg.(protocol.StopWorker); ok && from == "mr" {
			stops++
		}
	}
	report := func(m int32) {
		c.Net.SendID(from, app, job.InstanceReport{Worker: "mr-g0-w00001", Machine: m, Task: "map", Instance: 0, Done: true})
		c.Net.SendID(from, app, job.InstanceReport{Worker: "orphan", Machine: m, Task: "map", Idle: true})
		c.Run(10 * sim.Millisecond)
	}
	for _, m := range []int32{-1, int32(c.Top.Size()), 1 << 20} {
		report(m)
	}
	if done, _ := h.JM.TaskProgress("map"); done != 0 || stops != 0 {
		t.Errorf("reports outside the topology: %d instances done, %d stops sent", done, stops)
	}
	if after, _ := c.Net.Footprint(); after != slots {
		t.Errorf("endpoint slots %d -> %d", slots, after)
	}
	report(0)
	if done, _ := h.JM.TaskProgress("map"); done != 1 || stops != 1 {
		t.Errorf("reports about machine 0: %d instances done, %d stops sent, want 1 and 1", done, stops)
	}
}
