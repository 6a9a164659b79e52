package job

import (
	"fmt"

	"repro/internal/appmaster"
	"repro/internal/blacklist"
	"repro/internal/pangu"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// BackupConfig tunes the speculative-execution scheme of paper §4.3.2.
type BackupConfig struct {
	Enabled bool
	// ScanInterval is how often stragglers are re-evaluated (default 5 s).
	ScanInterval sim.Time
}

// The straggler criteria of paper §4.3.2.
const (
	// backupDoneFraction of instances must be finished before stragglers
	// are judged ("the majority of total instances (e.g., 90%) have
	// finished").
	backupDoneFraction = 0.9
	// backupFactor over the average instance duration marks a straggler
	// ("run for several times longer than the average").
	backupFactor = 2
)

// Worker and JobMaster failover timing.
const (
	// recoveryGrace is how long a restarted JobMaster waits for worker
	// reports before requeueing unconfirmed instances.
	recoveryGrace = 3 * sim.Second
	// workerStartTimeout bounds how long a worker may stay "starting"
	// before its work plan is retried (covers lost plans and lost Running
	// reports) — comfortably above the worker binary download time.
	workerStartTimeout = 60 * sim.Second
)

// Config assembles one JobMaster.
type Config struct {
	Desc       *Description
	QuotaGroup string
	// Store and Rt must be shared across JobMaster restarts of the same
	// job: the store is the durable snapshot, the runtime is the set of
	// worker processes that outlive the master.
	Store *SnapshotStore
	Rt    *Runtime
	// FS supplies input-chunk locality (nil disables locality hints).
	FS *pangu.FS
	// FullSyncInterval passes through to the resource protocol.
	FullSyncInterval sim.Time
	Backup           BackupConfig
	// Priority applies to all of the job's resource requests.
	Priority int
	// OnDone fires once when the last task completes.
	OnDone func(*JobMaster)
	// Observer, when set, sees every grant and revocation the job's
	// application master delivers, before the JobMaster acts on it.
	Observer Observer
}

// Observer watches a job's resource decisions (see Config.Observer). Inside
// OnGrant, the application master's GrantLevel and GrantWait describe the
// grant.
type Observer interface {
	OnGrant(unitID int, machine int32, count int)
	OnRevoke(unitID int, machine int32, count int)
}

// JobMaster drives one DAG job: high-level task-topology scheduling, with a
// TaskMaster per running task for instance scheduling (paper Figure 8).
type JobMaster struct {
	cfg Config
	eng *sim.Engine
	net *transport.Net
	top *topology.Topology
	am  *appmaster.AM
	rt  *Runtime

	store    *SnapshotStore
	black    *blacklist.MultiLevel
	order    []string
	unitOf   map[string]int
	taskOf   map[int]string
	tms      map[string]*taskMaster
	done     map[string]bool
	finished bool

	FinishedAt sim.Time

	recovering bool
	timers     []sim.Cancel

	// Counters for experiments.
	backupLaunched int
	backupWins     int

	// Overhead accounting for the paper's Table 2.
	workerStartTotal sim.Time
	workerStartCount int
	instOverTotal    sim.Time
	instOverCount    int
}

// OverheadStats returns the measured average worker-start overhead (work
// plan sent to first Running report) and instance-running overhead (AM-side
// instance time minus nominal execution time), in seconds — Table 2's two
// framework-level overheads.
func (j *JobMaster) OverheadStats() (workerStartSec, instanceOverheadSec float64) {
	if j.workerStartCount > 0 {
		workerStartSec = (j.workerStartTotal / sim.Time(j.workerStartCount)).Seconds()
	}
	if j.instOverCount > 0 {
		instanceOverheadSec = (j.instOverTotal / sim.Time(j.instOverCount)).Seconds()
	}
	return
}

// New starts (or restarts, when the store is non-empty) a JobMaster. The
// description must validate; units are registered for every task upfront.
func New(cfg Config, eng *sim.Engine, net *transport.Net, top *topology.Topology) (*JobMaster, error) {
	if err := cfg.Desc.Validate(); err != nil {
		return nil, err
	}
	if cfg.Store == nil {
		cfg.Store = NewSnapshotStore()
	}
	if cfg.Rt == nil {
		return nil, fmt.Errorf("job %q: nil runtime", cfg.Desc.Name)
	}
	if cfg.Backup.ScanInterval <= 0 {
		cfg.Backup.ScanInterval = 5 * sim.Second
	}
	order, _ := cfg.Desc.TopologicalOrder()

	j := &JobMaster{
		cfg: cfg, eng: eng, net: net, top: top, rt: cfg.Rt,
		store:  cfg.Store,
		black:  blacklist.New(),
		order:  order,
		unitOf: make(map[string]int, len(order)),
		taskOf: make(map[int]string, len(order)),
		tms:    make(map[string]*taskMaster),
		done:   make(map[string]bool),
	}
	var units []resource.ScheduleUnit
	for i, name := range order {
		unitID := i + 1
		j.unitOf[name] = unitID
		j.taskOf[unitID] = name
		spec := cfg.Desc.Tasks[name]
		max := spec.MaxWorkers
		if max <= 0 || max > spec.Instances {
			max = spec.Instances
		}
		units = append(units, resource.ScheduleUnit{
			ID: unitID, Priority: cfg.Priority + spec.Priority, MaxCount: max,
			Size: resource.New(spec.CPUMilli, spec.MemoryMB),
		})
	}

	recovery := !j.store.Empty()
	j.am = appmaster.New(appmaster.Config{
		App: cfg.Desc.Name, QuotaGroup: cfg.QuotaGroup, Units: units,
		FullSyncInterval: cfg.FullSyncInterval,
	}, eng, net, top, (*amEvents)(j))
	j.timers = append(j.timers, eng.Every(cfg.Backup.ScanInterval, j.scanBackups))

	if recovery {
		j.recover()
	} else {
		j.startReadyTasks()
	}
	return j, nil
}

// AM exposes the underlying application master (for experiment metrics).
func (j *JobMaster) AM() *appmaster.AM { return j.am }

// BackupStats returns (launched, wins) counters of the speculative scheme.
func (j *JobMaster) BackupStats() (int, int) { return j.backupLaunched, j.backupWins }

// TaskProgress returns (done, total) instances for a task.
func (j *JobMaster) TaskProgress(task string) (int, int) {
	if tm := j.tms[task]; tm != nil {
		return tm.doneCount, len(tm.instances)
	}
	if j.done[task] {
		n := j.cfg.Desc.Tasks[task].Instances
		return n, n
	}
	return 0, j.cfg.Desc.Tasks[task].Instances
}

// Crash kills the JobMaster process: its endpoint goes dark and all its
// in-memory scheduling state is lost. Workers keep running; the snapshot
// store and runtime survive for the successor.
func (j *JobMaster) Crash() {
	for _, c := range j.timers {
		c()
	}
	j.timers = nil
	j.am.Crash()
}

func (j *JobMaster) sendToWorker(worker uint32, msg transport.Message) {
	j.net.SendID(j.am.ID(), j.rt.endpoint(worker), msg)
}

// ---------------------------------------------------------------------------
// task topology
// ---------------------------------------------------------------------------

// startReadyTasks launches every not-yet-started task whose upstream tasks
// all completed ("each time only the tasks whose input data are ready can
// be scheduled", paper §4.4).
func (j *JobMaster) startReadyTasks() {
	for _, name := range j.order {
		if j.done[name] || j.tms[name] != nil {
			continue
		}
		ready := true
		for _, up := range j.cfg.Desc.Upstream(name) {
			if !j.done[up] {
				ready = false
				break
			}
		}
		if ready {
			tm := newTaskMaster(j, name, j.unitOf[name], j.cfg.Desc.Tasks[name])
			j.tms[name] = tm
			tm.start()
		}
	}
}

func (j *JobMaster) taskCompleted(name string) {
	j.done[name] = true
	delete(j.tms, name)
	if len(j.done) == len(j.order) {
		j.finish()
		return
	}
	j.startReadyTasks()
}

func (j *JobMaster) finish() {
	if j.finished {
		return
	}
	j.finished = true
	j.FinishedAt = j.eng.Now()
	for _, c := range j.timers {
		c()
	}
	j.timers = nil
	if j.cfg.OnDone != nil {
		j.cfg.OnDone(j)
	}
	j.am.Unregister()
}

// ---------------------------------------------------------------------------
// resource and worker events
// ---------------------------------------------------------------------------

// amEvents is the JobMaster as its application master sees it: the
// appmaster.Callbacks implementation, kept off JobMaster's own method set.
// The job layer names machines by the same dense IDs the resource protocol
// carries, so the events pass straight through.
type amEvents JobMaster

func (e *amEvents) OnGrant(unitID int, machine int32, count int) {
	j := (*JobMaster)(e)
	if j.cfg.Observer != nil {
		j.cfg.Observer.OnGrant(unitID, machine, count)
	}
	j.onGrant(unitID, machine, count)
}

func (e *amEvents) OnRevoke(unitID int, machine int32, count int) {
	j := (*JobMaster)(e)
	if j.cfg.Observer != nil {
		j.cfg.Observer.OnRevoke(unitID, machine, count)
	}
	j.onRevoke(unitID, machine, count)
}

func (e *amEvents) OnWorker(s protocol.WorkerStatus) { (*JobMaster)(e).onWorker(s) }
func (e *amEvents) OnMessage(from transport.EndpointID, msg any) {
	(*JobMaster)(e).onMessage(from, msg)
}

func (j *JobMaster) onGrant(unitID int, machine int32, count int) {
	if j.recovering {
		return // ledger only; workers reconciled at finishRecovery
	}
	name := j.taskOf[unitID]
	if tm := j.tms[name]; tm != nil {
		tm.grantArrived(machine, count)
	} else {
		// Grant for a task no longer running.
		j.am.ReturnContainers(unitID, machine, count)
	}
}

func (j *JobMaster) onRevoke(unitID int, machine int32, count int) {
	if tm := j.tms[j.taskOf[unitID]]; tm != nil {
		tm.revoked(machine, count)
	}
}

func (j *JobMaster) onWorker(s protocol.WorkerStatus) {
	w := j.am.Worker(s.Worker)
	switch s.State {
	case protocol.WorkerRunning:
		if w != nil {
			if w.RunningAt >= w.PlannedAt {
				j.workerStartTotal += w.RunningAt - w.PlannedAt
				j.workerStartCount++
			}
			if tm := j.tms[j.taskOf[w.UnitID]]; tm != nil {
				tm.workerRunning(s.Worker, s.Machine)
			}
		}
	case protocol.WorkerFailed:
		for _, tm := range j.tms {
			if _, ok := tm.workers[s.Worker]; ok {
				tm.workerFailed(s.Worker, s.Machine, s.FailureDetail)
				break
			}
		}
	}
}

func (j *JobMaster) onMessage(from transport.EndpointID, msg any) {
	r, ok := msg.(InstanceReport)
	// A report from a machine outside the topology, or not sent by the worker
	// it names, is dropped whole, before any task, worker or snapshot state
	// changes.
	if !ok || !j.top.Holds(resource.LocalityMachine, r.Machine) || !j.rt.sentBy(r.Worker, from) {
		return
	}
	if r.Idle {
		j.handleIdleReport(r)
		return
	}
	tm := j.tms[r.Task]
	if tm == nil {
		if !j.done[r.Task] && r.Task != "" {
			return
		}
		// Late completion for a finished task: tell the worker to stop.
		return
	}
	if j.recovering {
		j.adoptFromReport(tm, r)
	}
	if r.Instance < 0 || r.Instance >= len(tm.instances) {
		return
	}
	tm.report(r)
}

func (j *JobMaster) handleIdleReport(r InstanceReport) {
	if w := j.am.Worker(r.Worker); w != nil {
		if tm := j.tms[j.taskOf[w.UnitID]]; tm != nil {
			if j.recovering {
				tm.adoptWorker(r.Worker, r.Machine)
				return
			}
			tm.idleReport(r)
		}
		return
	}
	// Worker unknown to this (possibly fresh) AM. Idle reports carry the
	// owning task, so a failover successor can adopt it; outside recovery
	// an unknown worker is an orphan (already replaced) — reap it so it
	// stops occupying container capacity.
	if tm := j.tms[r.Task]; tm != nil && j.recovering {
		tm.adoptWorker(r.Worker, r.Machine)
		return
	}
	if !j.recovering {
		j.am.StopWorkerOn(r.Machine, r.Worker)
	}
}

func (j *JobMaster) adoptFromReport(tm *taskMaster, r InstanceReport) {
	w := tm.adoptWorker(r.Worker, r.Machine)
	if !r.Done && r.Instance >= 0 && r.Instance < len(tm.instances) {
		in := tm.instances[r.Instance]
		if in.state == InstanceRunning && in.attempt == r.Attempt {
			in.confirmed = true
			in.worker = r.Worker
			w.state = workerBusy
			w.instance = in.id
		}
	}
}

func (j *JobMaster) scanBackups() {
	// Walk tasks in description order, not map order: the scan emits
	// resource and worker messages whose order must be seed-reproducible.
	for _, name := range j.order {
		tm := j.tms[name]
		if tm == nil {
			continue
		}
		tm.scanBackups()
		if !j.recovering {
			tm.reapStuckStarts()
		}
	}
}

// ---------------------------------------------------------------------------
// failover
// ---------------------------------------------------------------------------

// recover rebuilds scheduling state from the snapshot and the reports of
// still-running workers (paper §4.3.1 JobMaster failover: "initially load
// the snapshot of instance status, collect the status from TaskWorker, and
// finally recover the inner instance scheduling results").
func (j *JobMaster) recover() {
	j.recovering = true
	// Rebuild completed-task set and live task masters from the snapshot.
	for _, name := range j.order {
		snap := j.store.Task(name)
		if snap == nil {
			continue
		}
		if snap.Completed {
			j.done[name] = true
			continue
		}
		tm := newTaskMaster(j, name, j.unitOf[name], j.cfg.Desc.Tasks[name])
		tm.computeLocality()
		j.tms[name] = tm
		tm.restoreFromSnap(snap)
	}
	j.timers = append(j.timers, j.eng.After(recoveryGrace, j.finishRecovery))
}

func (j *JobMaster) finishRecovery() {
	if !j.recovering {
		return
	}
	j.recovering = false
	if j.finished {
		return
	}
	for _, name := range j.order {
		if tm := j.tms[name]; tm != nil {
			tm.finishRecovery()
		}
	}
	j.startReadyTasks()
}
