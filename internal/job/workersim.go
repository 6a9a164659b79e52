package job

import (
	"strconv"

	"repro/internal/sim"
	"repro/internal/transport"
)

// Env abstracts the cluster ground truth TaskWorkers execute against: which
// processes are actually alive (the agents' process tables) and how slow
// each machine currently is (SlowMachine fault injection). Machines are
// dense topology IDs, and a worker is its number under its application
// master's endpoint.
type Env interface {
	// ProcAlive reports whether the process of worker number worker of the
	// application at endpoint app is running on machine.
	ProcAlive(machine int32, app transport.EndpointID, worker uint32) bool
	// Slowdown returns the execution-time multiplier of machine (1 =
	// healthy).
	Slowdown(machine int32) float64
}

// WorkerEndpoint names a TaskWorker's transport endpoint.
func WorkerEndpoint(app string, worker uint32) string {
	return "wkr:" + app + ":" + strconv.FormatUint(uint64(worker), 10)
}

// Runtime owns the TaskWorker processes of one job. It deliberately lives
// outside the JobMaster object: a JobMaster crash must leave workers
// "still running the instances without interruption" (paper §4.3.1), so
// their execution state cannot die with the master.
type Runtime struct {
	eng *sim.Engine
	net *transport.Net
	env Env
	app string
	// ReportEvery is the TaskWorker status-report period.
	ReportEvery sim.Time

	workers map[uint32]*WorkerSim
	// appEP is the job's application-master endpoint, taken while it is live
	// (None before the first worker). gone holds the retired endpoint of each
	// worker the runtime removed. Late traffic is sent to these IDs, which the
	// network drops on arrival.
	appEP transport.EndpointID
	gone  map[uint32]transport.EndpointID
}

// NewRuntime creates the worker-side runtime for app.
func NewRuntime(eng *sim.Engine, net *transport.Net, env Env, app string, reportEvery sim.Time) *Runtime {
	if reportEvery <= 0 {
		reportEvery = sim.Second
	}
	return &Runtime{
		eng: eng, net: net, env: env, app: app,
		ReportEvery: reportEvery,
		workers:     make(map[uint32]*WorkerSim),
		appEP:       transport.None,
	}
}

// Ensure returns the WorkerSim for worker, creating (and wiring) it on first
// sight.
func (r *Runtime) Ensure(worker uint32, machine int32) *WorkerSim {
	if w, ok := r.workers[worker]; ok {
		return w
	}
	if r.appEP == transport.None {
		// A JobMaster creates workers only while its application master is
		// registered.
		r.appEP = r.net.Endpoint(r.app)
	}
	w := &WorkerSim{rt: r, ID: worker, Machine: machine}
	r.workers[worker] = w
	w.ep = r.net.Register(WorkerEndpoint(r.app, worker), w.handle)
	w.reportTimer = r.eng.Every(r.ReportEvery, w.report)
	return w
}

// sentBy reports whether from is the endpoint of the live worker numbered
// worker.
func (r *Runtime) sentBy(worker uint32, from transport.EndpointID) bool {
	w := r.workers[worker]
	return w != nil && w.ep == from
}

// Live returns the number of live worker sims.
func (r *Runtime) Live() int { return len(r.workers) }

func (r *Runtime) remove(w *WorkerSim) {
	if w.reportTimer != nil {
		w.reportTimer()
	}
	if w.doneTimer != nil {
		w.doneTimer()
	}
	r.net.Retire(w.ep)
	delete(r.workers, w.ID)
	if r.gone == nil {
		r.gone = make(map[uint32]transport.EndpointID)
	}
	r.gone[w.ID] = w.ep
}

// endpoint returns the ID to address worker at: its live endpoint, the
// retired one of a worker the runtime removed, or, for a worker not yet
// started, the ID its name interns to.
func (r *Runtime) endpoint(worker uint32) transport.EndpointID {
	if w := r.workers[worker]; w != nil {
		return w.ep
	}
	if ep, ok := r.gone[worker]; ok {
		return ep
	}
	return r.net.Endpoint(WorkerEndpoint(r.app, worker))
}

// instanceRun is the worker's current assignment.
type instanceRun struct {
	task     string
	instance int
	attempt  int
	backup   bool
	started  sim.Time
	duration sim.Time
}

// WorkerSim simulates one TaskWorker process: it executes assigned
// instances (stretched by the machine's slowdown factor) and reports status
// periodically and on completion. It checks the agent's process table
// before acting — a killed process neither completes nor reports.
type WorkerSim struct {
	rt      *Runtime
	ep      transport.EndpointID
	ID      uint32
	Machine int32 // dense machine ID
	// Task records which task owns this worker so that idle reports stay
	// attributable after a JobMaster failover.
	Task string

	current     *instanceRun
	doneTimer   sim.Cancel
	reportTimer sim.Cancel
}

func (w *WorkerSim) alive() bool { return w.rt.env.ProcAlive(w.Machine, w.rt.appEP, w.ID) }

func (w *WorkerSim) handle(from transport.EndpointID, msg transport.Message) {
	if !w.alive() {
		w.rt.remove(w)
		return
	}
	switch t := msg.(type) {
	case AssignInstance:
		w.assign(t)
	case KillInstance:
		if w.current != nil && w.current.task == t.Task && w.current.instance == t.Instance {
			w.abort()
			w.report()
		}
	}
}

func (w *WorkerSim) assign(t AssignInstance) {
	if w.current != nil {
		if w.current.task == t.Task && w.current.instance == t.Instance && w.current.attempt == t.Attempt {
			return // duplicate assignment
		}
		w.abort() // pre-empted by a new assignment
	}
	d := sim.Time(float64(t.Duration) * w.rt.env.Slowdown(w.Machine))
	if d < sim.Microsecond {
		d = sim.Microsecond
	}
	run := &instanceRun{
		task: t.Task, instance: t.Instance, attempt: t.Attempt,
		backup: t.Backup, started: w.rt.eng.Now(), duration: d,
	}
	w.current = run
	w.doneTimer = w.rt.eng.After(d, func() {
		if w.current != run {
			return
		}
		if !w.alive() {
			// The process was killed mid-run; a dead worker reports
			// nothing — the JobMaster learns through other channels.
			w.rt.remove(w)
			return
		}
		w.current = nil
		w.send(InstanceReport{
			Worker: w.ID, Machine: w.Machine,
			Task: run.task, Instance: run.instance, Attempt: run.attempt,
			Done: true, Backup: run.backup,
		})
	})
}

func (w *WorkerSim) abort() {
	if w.doneTimer != nil {
		w.doneTimer()
		w.doneTimer = nil
	}
	w.current = nil
}

// report sends the periodic status: running progress or an idle beacon.
func (w *WorkerSim) report() {
	if !w.alive() {
		w.rt.remove(w)
		return
	}
	if w.current == nil {
		w.send(InstanceReport{Worker: w.ID, Machine: w.Machine, Task: w.Task, Idle: true})
		return
	}
	run := w.current
	progress := float64(w.rt.eng.Now()-run.started) / float64(run.duration)
	if progress > 0.99 {
		progress = 0.99
	}
	w.send(InstanceReport{
		Worker: w.ID, Machine: w.Machine,
		Task: run.task, Instance: run.instance, Attempt: run.attempt,
		Backup: run.backup, Progress: progress,
	})
}

func (w *WorkerSim) send(msg transport.Message) {
	w.rt.net.SendID(w.ep, w.rt.appEP, msg)
}
