package core

import (
	"fmt"

	"repro/internal/job"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/transport"
)

// The Cluster implements job.Env: worker liveness comes from the agents'
// authoritative process tables and slowdown factors from fault injection.

// ProcAlive reports whether the process of an application's worker is running
// on machine. A daemon-down machine still runs its processes, a machine-down
// one does not: the agent's process table tracks the distinction.
func (c *Cluster) ProcAlive(machine int32, app transport.EndpointID, worker uint32) bool {
	return c.holds(machine) && c.Agents[machine].Proc(app, worker) != nil
}

// Slowdown returns machine's execution-time multiplier (SlowMachine fault).
func (c *Cluster) Slowdown(machine int32) float64 {
	if c.holds(machine) {
		return c.Faults.Slowdown(machine)
	}
	return 1
}

func (c *Cluster) holds(machine int32) bool { return c.Top.Holds(resource.LocalityMachine, machine) }

// JobHandle tracks one submitted job across JobMaster incarnations.
type JobHandle struct {
	Name  string
	Desc  *job.Description
	Store *job.SnapshotStore
	Rt    *job.Runtime
	JM    *job.JobMaster

	SubmittedAt sim.Time
	// StartedAt is when the JobMaster process came up (SubmittedAt plus
	// the JobMaster start overhead of Table 2).
	StartedAt sim.Time
	DoneAt    sim.Time

	cfg    job.Config
	c      *Cluster
	onDone []func()
}

// OnJobDone registers a callback invoked once when the job completes
// (in addition to any job.Config.OnDone).
func (h *JobHandle) OnJobDone(fn func()) {
	if h.Done() {
		fn()
		return
	}
	h.onDone = append(h.onDone, fn)
}

// Done reports whether the job finished.
func (h *JobHandle) Done() bool { return h.DoneAt > 0 }

// ElapsedSeconds returns the submission-to-completion time.
func (h *JobHandle) ElapsedSeconds() float64 {
	if !h.Done() {
		return -1
	}
	return (h.DoneAt - h.SubmittedAt).Seconds()
}

// JobOptions tunes job submission.
type JobOptions struct {
	// StartDelay models FuxiMaster scheduling an agent to launch the
	// JobMaster process (Table 2's "JobMaster Start Overhead", ~1.91 s in
	// the paper). Zero starts immediately.
	StartDelay sim.Time
	// Config carries job-framework tunables; Desc, Store and Rt are filled
	// by SubmitJob.
	Config job.Config
}

// SubmitJob schedules a job for execution and returns its handle. The
// JobMaster process starts after StartDelay, mirroring the paper's job
// submission workflow.
func (c *Cluster) SubmitJob(desc *job.Description, opts JobOptions) (*JobHandle, error) {
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	cfg := opts.Config
	cfg.Desc = desc
	cfg.Store = job.NewSnapshotStore()
	cfg.Rt = job.NewRuntime(c.Eng, c.Net, c, desc.Name, sim.Second)
	if cfg.FS == nil {
		cfg.FS = c.FS
	}
	h := &JobHandle{
		Name: desc.Name, Desc: desc, Store: cfg.Store, Rt: cfg.Rt,
		SubmittedAt: c.Eng.Now(), cfg: cfg, c: c,
	}
	userDone := cfg.OnDone
	cfg.OnDone = func(jm *job.JobMaster) {
		h.DoneAt = c.Eng.Now()
		if userDone != nil {
			userDone(jm)
		}
		for _, fn := range h.onDone {
			fn()
		}
		h.onDone = nil
	}
	h.cfg = cfg
	start := func() {
		jm, err := job.New(h.cfg, c.Eng, c.Net, c.Top)
		if err != nil {
			return
		}
		h.JM = jm
		h.StartedAt = c.Eng.Now()
	}
	if opts.StartDelay > 0 {
		c.Eng.After(opts.StartDelay, start)
	} else {
		start()
	}
	return h, nil
}

// CrashJobMaster kills the job's current JobMaster process (workers keep
// running).
func (h *JobHandle) CrashJobMaster() error {
	if h.JM == nil {
		return fmt.Errorf("job %s: no JobMaster running", h.Name)
	}
	h.JM.Crash()
	h.JM = nil
	return nil
}

// RestartJobMaster launches a fresh JobMaster that recovers from the
// snapshot store and the surviving workers.
func (h *JobHandle) RestartJobMaster() error {
	if h.JM != nil {
		return fmt.Errorf("job %s: JobMaster already running", h.Name)
	}
	jm, err := job.New(h.cfg, h.c.Eng, h.c.Net, h.c.Top)
	if err != nil {
		return err
	}
	h.JM = jm
	return nil
}
