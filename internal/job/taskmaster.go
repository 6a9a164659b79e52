package job

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/resource"
	"repro/internal/sim"
)

// instance is one unit of task parallelism.
type instance struct {
	id      int
	state   InstanceState
	attempt int
	worker  uint32 // 0 when none
	// backupWorker runs the speculative copy, 0 when none (paper §4.3.2
	// backup instance scheme).
	backupWorker uint32
	startedAt    sim.Time
	finishedAt   sim.Time
	// confirmed distinguishes snapshot-restored "running" instances whose
	// worker has not reported yet during JobMaster failover.
	confirmed bool
	// locations are the machines (dense IDs) holding the instance's input
	// chunk (locality preference a) of the paper's instance scheduler).
	locations []int32
	// duration is this instance's execution time: the task's DurationMS
	// with the per-instance jitter applied once (it models the partition's
	// data volume, so retries and backups use the same value).
	duration sim.Time
	// failedOn lists the machines this instance failed on: the bottom level
	// of the multi-level blacklist, which keeps the instance off them while
	// the task has a worker elsewhere (see avoids).
	failedOn []int32
}

// tmWorkerState tracks a worker from the TaskMaster's perspective.
type tmWorkerState int

const (
	workerStarting tmWorkerState = iota
	workerIdle
	workerBusy
)

type tmWorker struct {
	id       uint32
	machine  int32
	state    tmWorkerState
	instance int // busy: which instance (primary or backup); else -1
	// plannedAt bounds how long a worker may stay in workerStarting: a
	// work plan lost on the wire would otherwise leak the container.
	plannedAt sim.Time
}

// taskMaster schedules one task's instances onto its workers (paper §4.4:
// "an individual TaskMaster object is created ... conduct the fine-grained
// instance scheduling to determine which worker to execute each instance").
type taskMaster struct {
	jm     *JobMaster
	name   string
	spec   TaskSpec
	unitID int

	instances []*instance
	// pendingQ is the FIFO of instance IDs awaiting a worker; localIdx
	// indexes pending instances by input-holding machine so scheduling
	// "will be scheduled to the worker with the most local input data"
	// in O(1) (scheduling scans only unassigned instances, §4.4 point c).
	pendingQ []int
	localIdx map[int32][]int

	workers   map[uint32]*tmWorker
	doneCount int
	started   sim.Time
	completed bool
	// startFailSeq mints pseudo-instance IDs for workers that die before
	// receiving an instance (e.g. "disk corrupted: process cannot be
	// launched"), so repeated launch failures still escalate the machine
	// through the blacklist.
	startFailSeq int
}

func newTaskMaster(jm *JobMaster, name string, unitID int, spec TaskSpec) *taskMaster {
	tm := &taskMaster{
		jm: jm, name: name, spec: spec, unitID: unitID,
		workers:  make(map[uint32]*tmWorker),
		localIdx: make(map[int32][]int),
		started:  jm.eng.Now(),
	}
	tm.instances = make([]*instance, spec.Instances)
	base := sim.Time(spec.DurationMS) * sim.Millisecond
	for i := range tm.instances {
		d := base
		if spec.DurationJitterPct > 0 {
			j := float64(spec.DurationJitterPct) / 100
			d = sim.Time(float64(base) * (1 - j + 2*j*jm.eng.Rand().Float64()))
			if d < sim.Millisecond {
				d = sim.Millisecond
			}
		}
		tm.instances[i] = &instance{id: i, duration: d}
	}
	return tm
}

// desiredWorkers is the task's container target.
func (tm *taskMaster) desiredWorkers() int {
	w := tm.spec.MaxWorkers
	if w <= 0 || w > tm.spec.Instances {
		w = tm.spec.Instances
	}
	return w
}

// start computes input locality, enqueues all instances, and requests
// containers.
func (tm *taskMaster) start() {
	tm.computeLocality()
	for _, in := range tm.instances {
		tm.enqueue(in)
	}
	tm.requestWorkers(tm.desiredWorkers())
	tm.jm.store.SaveTask(tm.name, true, false, len(tm.instances))
}

// computeLocality maps instance i to the machines holding its input: the
// replicas of chunk i of the task's input files, and the machines where
// instance i (modulo their width) of each upstream task finished.
func (tm *taskMaster) computeLocality() {
	for _, up := range tm.jm.cfg.Desc.Upstream(tm.name) {
		snap := tm.jm.store.Task(up)
		if snap == nil || len(snap.Instances) == 0 {
			continue
		}
		for i, in := range tm.instances {
			if s := snap.Instances[i%len(snap.Instances)]; s.State == InstanceDone {
				in.locations = append(in.locations, s.Machine)
			}
		}
	}
	if tm.jm.cfg.FS == nil {
		return
	}
	files := tm.jm.cfg.Desc.InputFiles(tm.name)
	idx := 0
	for _, f := range files {
		file, err := tm.jm.cfg.FS.Open(f)
		if err != nil {
			continue
		}
		for c := range file.Chunks {
			if idx >= len(tm.instances) {
				return
			}
			in := tm.instances[idx]
			in.locations = append(in.locations, file.Chunks[c].Replicas...)
			idx++
		}
	}
}

// requestWorkers asks FuxiMaster for n containers, expressing per-machine
// locality for pending instances and the remainder at cluster level.
func (tm *taskMaster) requestWorkers(n int) {
	if n <= 0 {
		return
	}
	perMachine := map[int32]int{}
	hinted := 0
	for _, id := range tm.pendingQ {
		if hinted >= n {
			break
		}
		in := tm.instances[id]
		for _, m := range in.locations {
			if tm.jm.black.TaskBlacklisted(tm.name, m) {
				continue
			}
			perMachine[m]++
			hinted++
			break
		}
	}
	var hints []resource.LocalityHint
	for mc, c := range perMachine {
		hints = append(hints, resource.LocalityHint{Type: resource.LocalityMachine, Node: mc, Count: c})
	}
	// The master satisfies hints in request order: keep it reproducible.
	resource.SortHints(hints)
	if rest := n - hinted; rest > 0 {
		hints = append(hints, resource.LocalityHint{Type: resource.LocalityCluster, Count: rest})
	}
	tm.jm.am.Request(tm.unitID, hints...)
}

func (tm *taskMaster) enqueue(in *instance) {
	in.state = InstancePending
	in.worker = 0
	tm.pendingQ = append(tm.pendingQ, in.id)
	for _, m := range in.locations {
		tm.localIdx[m] = append(tm.localIdx[m], in.id)
	}
}

// nextFor pops the best pending instance for a worker: local input first,
// then FIFO. An instance the worker's machine avoids is skipped for it and
// stays queued for the others.
func (tm *taskMaster) nextFor(w *tmWorker) *instance {
	// Local preference.
	local := tm.localIdx[w.machine]
	for len(local) > 0 {
		id := local[0]
		local = local[1:]
		in := tm.instances[id]
		if in.state == InstancePending && !tm.avoids(in, w.machine) {
			tm.localIdx[w.machine] = local
			return in
		}
	}
	tm.localIdx[w.machine] = local
	// Global FIFO: entries of instances no longer pending are dropped as
	// they reach the head.
	for len(tm.pendingQ) > 0 && tm.instances[tm.pendingQ[0]].state != InstancePending {
		tm.pendingQ = tm.pendingQ[1:]
	}
	for i, id := range tm.pendingQ {
		in := tm.instances[id]
		if in.state == InstancePending && !tm.avoids(in, w.machine) {
			tm.pendingQ = append(tm.pendingQ[:i], tm.pendingQ[i+1:]...)
			return in
		}
	}
	return nil
}

// avoids reports whether in should not run on machine: it failed there
// before, and the task has a worker on a machine where it has not. A task
// blacklists a machine only once three distinct instances failed on it, so
// without this rule its last one or two instances could fail on the same
// machine forever.
func (tm *taskMaster) avoids(in *instance, machine int32) bool {
	if !slices.Contains(in.failedOn, machine) {
		return false
	}
	for _, w := range tm.workers {
		if !slices.Contains(in.failedOn, w.machine) {
			return true
		}
	}
	return false
}

// assignNext gives an idle worker its next instance (container — and
// process — reuse: one worker executes many instances sequentially).
func (tm *taskMaster) assignNext(w *tmWorker) {
	if tm.completed || w.state != workerIdle {
		return
	}
	if tm.jm.black.TaskBlacklisted(tm.name, w.machine) {
		// The machine went bad while this worker idled (failures or lost
		// backup races): retire the container and ask for one elsewhere.
		delete(tm.workers, w.id)
		tm.jm.am.StopWorker(w.id)
		tm.jm.am.ReturnContainers(tm.unitID, w.machine, 1)
		if tm.remainingWork() > 0 {
			tm.requestWorkers(1)
		}
		return
	}
	in := tm.nextFor(w)
	if in == nil {
		return // stays idle: available for requeues and backups
	}
	in.state = InstanceRunning
	in.worker = w.id
	in.confirmed = true
	in.startedAt = tm.jm.eng.Now()
	w.state = workerBusy
	w.instance = in.id
	tm.jm.sendToWorker(w.id, AssignInstance{
		Task: tm.name, Instance: in.id, Attempt: in.attempt,
		Duration: in.duration,
	})
	tm.jm.store.SaveInstance(tm.name, in.id, InstanceSnap{State: InstanceRunning, Worker: w.id, Attempt: in.attempt})
}

// grantArrived reacts to count new containers on machine.
func (tm *taskMaster) grantArrived(machine int32, count int) {
	if tm.completed {
		// Late grant for a finished task: hand it straight back.
		tm.jm.am.ReturnContainers(tm.unitID, machine, count)
		return
	}
	for i := 0; i < count; i++ {
		id := tm.jm.store.nextWorker()
		tm.workers[id] = &tmWorker{id: id, machine: machine, state: workerStarting, instance: -1, plannedAt: tm.jm.eng.Now()}
		tm.jm.am.StartWorker(tm.unitID, machine, id)
	}
}

// reapStuckStarts retries workers stuck in workerStarting beyond
// workerStartTimeout — a lost work plan (or lost Running status) would
// otherwise leak the container forever.
func (tm *taskMaster) reapStuckStarts() {
	if tm.completed {
		return
	}
	now := tm.jm.eng.Now()
	for _, w := range tm.workersByID(func(w *tmWorker) bool {
		return w.state == workerStarting && now-w.plannedAt > workerStartTimeout
	}) {
		tm.workerFailed(w.id, w.machine, "worker start timed out")
	}
}

// workersByID returns the workers keep accepts in worker-number order: what
// the task master sends them must be seed-reproducible, never in map order.
func (tm *taskMaster) workersByID(keep func(*tmWorker) bool) []*tmWorker {
	var out []*tmWorker
	for _, w := range tm.workers {
		if keep(w) {
			out = append(out, w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// workerRunning handles the first Running status of a worker.
func (tm *taskMaster) workerRunning(id uint32, machine int32) {
	w := tm.workers[id]
	if w == nil {
		return
	}
	tm.jm.rt.Ensure(id, machine).Task = tm.name
	if w.state == workerStarting {
		w.state = workerIdle
		tm.assignNext(w)
	}
}

// workerFailed handles a worker death: requeue its instance, record the
// failure for blacklisting, and recover the container.
func (tm *taskMaster) workerFailed(id uint32, machine int32, detail string) {
	w := tm.workers[id]
	if w == nil {
		return
	}
	delete(tm.workers, id)
	if w.instance < 0 {
		// Launch failure: no instance involved, but the machine is still
		// suspect — record it under a pseudo-instance so persistent launch
		// failures blacklist the machine instead of looping forever.
		tm.startFailSeq++
		if tm.jm.black.RecordFailure(tm.name, -tm.startFailSeq, machine) {
			tm.jm.am.ReportBadMachine(machine)
		}
	} else {
		tm.failureOn(tm.instances[w.instance], machine)
	}
	tm.release(w)
	if tm.completed {
		return
	}
	// Reap any copy of the worker the agent auto-restarted: the task
	// master replaces failed workers itself, and a zombie would occupy the
	// container's capacity and block the replacement.
	tm.jm.am.StopWorkerOn(machine, id)
	// Container recovery: the master's ledger may still hold the container
	// on that machine (process death does not revoke a grant). Reuse it
	// unless the machine is now blacklisted for this task.
	if tm.jm.am.Held(tm.unitID, machine) > tm.workersOn(machine) {
		if tm.jm.black.TaskBlacklisted(tm.name, machine) {
			tm.jm.am.ReturnContainers(tm.unitID, machine, 1)
			tm.requestWorkers(1)
		} else {
			tm.grantArrived(machine, 1)
		}
	}
}

// failureOn records an instance failure on machine, escalating through the
// multi-level blacklist; a job-level escalation is reported to FuxiMaster.
func (tm *taskMaster) failureOn(in *instance, machine int32) {
	if !slices.Contains(in.failedOn, machine) {
		in.failedOn = append(in.failedOn, machine)
	}
	if tm.jm.black.RecordFailure(tm.name, in.id, machine) {
		tm.jm.am.ReportBadMachine(machine)
	}
}

// revoked handles the master revoking count containers on machine (node
// down, preemption, blacklist): workers there are lost.
func (tm *taskMaster) revoked(machine int32, count int) {
	// Lose the highest IDs first — the most recently planned — mirroring
	// the agent's capacity enforcement.
	on := tm.workersByID(func(w *tmWorker) bool { return w.machine == machine })
	for i := len(on) - 1; i >= 0 && i >= len(on)-count; i-- {
		delete(tm.workers, on[i].id)
		tm.release(on[i])
	}
	if !tm.completed && tm.remainingWork() > 0 {
		tm.requestWorkers(count)
	}
}

// release gives up a lost worker's instance: a lost primary copy hands the
// instance to its backup if one runs, or back to the queue; a lost backup
// copy is dropped.
func (tm *taskMaster) release(w *tmWorker) {
	if w.instance < 0 {
		return
	}
	in := tm.instances[w.instance]
	switch {
	case in.state == InstanceRunning && in.worker == w.id && in.backupWorker != 0:
		in.worker, in.backupWorker = in.backupWorker, 0
	case in.state == InstanceRunning && in.worker == w.id:
		in.attempt++
		tm.enqueue(in)
		tm.jm.store.SaveInstance(tm.name, in.id, InstanceSnap{State: InstancePending, Attempt: in.attempt})
	case in.backupWorker == w.id:
		in.backupWorker = 0
	}
}

func (tm *taskMaster) workersOn(machine int32) int {
	n := 0
	for _, w := range tm.workers {
		if w.machine == machine {
			n++
		}
	}
	return n
}

// remainingWork counts instances not yet done.
func (tm *taskMaster) remainingWork() int { return len(tm.instances) - tm.doneCount }

// report processes one InstanceReport addressed to this task.
func (tm *taskMaster) report(r InstanceReport) {
	in := tm.instances[r.Instance]
	if r.Done {
		tm.instanceDone(in, r)
		return
	}
	// Progress report: confirms a running instance (failover adoption).
	if in.state == InstanceRunning && r.Attempt == in.attempt {
		in.confirmed = true
		if w := tm.workers[r.Worker]; w != nil && w.state != workerBusy {
			w.state = workerBusy
			w.instance = in.id
		}
	}
}

func (tm *taskMaster) instanceDone(in *instance, r InstanceReport) {
	if in.state == InstanceDone || r.Attempt != in.attempt {
		return // stale completion from a superseded attempt
	}
	in.state = InstanceDone
	in.finishedAt = tm.jm.eng.Now()
	tm.doneCount++
	tm.jm.store.SaveInstance(tm.name, in.id, InstanceSnap{State: InstanceDone, Attempt: in.attempt, Machine: r.Machine})
	// Table 2 accounting: the difference between the AM-observed instance
	// time and the nominal execution time is pure framework overhead
	// (assignment and completion-report latency).
	if in.startedAt > 0 {
		nominal := in.duration
		if over := (in.finishedAt - in.startedAt) - nominal; over > 0 {
			tm.jm.instOverTotal += over
			tm.jm.instOverCount++
		}
	}

	// First finisher wins; kill the sibling copy (paper backup scheme).
	sibling := in.backupWorker
	if r.Worker == in.backupWorker {
		sibling = in.worker
		tm.jm.backupWins++
		// Losing a backup race is evidence the original's machine is
		// degraded ("JobMaster will estimate the machine health based on
		// the worker statuses", §4.3.2): record it so persistently slow
		// machines escalate through the blacklist.
		if sw := tm.workers[in.worker]; sw != nil {
			tm.failureOn(in, sw.machine)
		}
	}
	in.backupWorker = 0
	in.worker = r.Worker
	if sibling != 0 && sibling != r.Worker {
		tm.jm.sendToWorker(sibling, KillInstance{Task: tm.name, Instance: in.id})
		if sw := tm.workers[sibling]; sw != nil && sw.instance == in.id {
			sw.state = workerIdle
			sw.instance = -1
			tm.assignNext(sw)
		}
	}

	if w := tm.workers[r.Worker]; w != nil {
		w.state = workerIdle
		w.instance = -1
		tm.assignNext(w)
	}
	if tm.doneCount == len(tm.instances) {
		tm.complete()
	}
}

// idleReport adopts or re-feeds an idle worker.
func (tm *taskMaster) idleReport(r InstanceReport) {
	w := tm.workers[r.Worker]
	if w == nil {
		return
	}
	if w.state == workerBusy && w.instance >= 0 {
		in := tm.instances[w.instance]
		if in.state == InstanceRunning && in.worker == w.id && in.confirmed {
			// The worker thinks it's idle but we think it runs an
			// instance: the assignment (or its completion report) was
			// lost. Re-send the assignment.
			tm.jm.sendToWorker(w.id, AssignInstance{
				Task: tm.name, Instance: in.id, Attempt: in.attempt,
				Duration: in.duration,
			})
			return
		}
		w.state = workerIdle
		w.instance = -1
	}
	if w.state == workerStarting {
		w.state = workerIdle
	}
	tm.assignNext(w)
}

// scanBackups launches speculative copies of stragglers. All three of the
// paper's criteria apply: 90% of instances finished, the straggler ran
// several times longer than the average, and it exceeded the user-declared
// normal duration (so data skew is not mistaken for a fault).
func (tm *taskMaster) scanBackups() {
	if tm.completed || !tm.jm.cfg.Backup.Enabled {
		return
	}
	if float64(tm.doneCount) < backupDoneFraction*float64(len(tm.instances)) {
		return
	}
	var avg float64
	n := 0
	for _, in := range tm.instances {
		if in.state == InstanceDone && in.finishedAt > in.startedAt {
			avg += float64(in.finishedAt - in.startedAt)
			n++
		}
	}
	if n == 0 {
		return
	}
	avg /= float64(n)
	normal := sim.Time(tm.spec.NormalDurationMS) * sim.Millisecond
	if normal == 0 {
		normal = 4 * sim.Time(tm.spec.DurationMS) * sim.Millisecond
	}
	now := tm.jm.eng.Now()
	for _, in := range tm.instances {
		if in.state != InstanceRunning || in.backupWorker != 0 || !in.confirmed {
			continue
		}
		elapsed := now - in.startedAt
		if float64(elapsed) < backupFactor*avg || elapsed < normal {
			continue
		}
		orig := tm.workers[in.worker]
		// Pick the eligible idle worker with the smallest number — never by
		// map order, which would make backup placement (and thus whole
		// fault-injection runs) irreproducible.
		var backup *tmWorker
		for _, w := range tm.workers {
			if w.state != workerIdle {
				continue
			}
			if orig != nil && w.machine == orig.machine {
				continue // a backup on the same sick machine is pointless
			}
			if backup == nil || w.id < backup.id {
				backup = w
			}
		}
		if backup != nil {
			backup.state = workerBusy
			backup.instance = in.id
			in.backupWorker = backup.id
			tm.jm.backupLaunched++
			tm.jm.sendToWorker(backup.id, AssignInstance{
				Task: tm.name, Instance: in.id, Attempt: in.attempt,
				Duration: in.duration,
				Backup:   true,
			})
		}
	}
}

// complete finishes the task: stop workers, return containers, withdraw
// leftover demand, unblock downstream tasks.
func (tm *taskMaster) complete() {
	tm.completed = true
	perMachine := map[int32]int{}
	for _, w := range tm.workersByID(func(*tmWorker) bool { return true }) {
		tm.jm.am.StopWorker(w.id)
		perMachine[w.machine]++
		delete(tm.workers, w.id)
	}
	machines := make([]int32, 0, len(perMachine))
	for m := range perMachine {
		machines = append(machines, m)
	}
	slices.Sort(machines)
	for _, m := range machines {
		tm.jm.am.ReturnContainers(tm.unitID, m, perMachine[m])
	}
	if out := tm.jm.am.Outstanding(tm.unitID); out > 0 {
		tm.jm.am.Request(tm.unitID, resource.LocalityHint{Type: resource.LocalityCluster, Count: -out})
	}
	tm.jm.store.SaveTask(tm.name, true, true, len(tm.instances))
	tm.jm.taskCompleted(tm.name)
}

// restoreFromSnap rebuilds instance states after a JobMaster failover.
// Running instances stay provisionally running (unconfirmed) until their
// worker reports; done instances stay done.
func (tm *taskMaster) restoreFromSnap(snap *TaskSnap) {
	for i, s := range snap.Instances {
		in := tm.instances[i]
		in.attempt = s.Attempt
		switch s.State {
		case InstanceDone:
			in.state = InstanceDone
			tm.doneCount++
		case InstanceRunning:
			in.state = InstanceRunning
			in.worker = s.Worker
			in.confirmed = false
			in.startedAt = tm.jm.eng.Now() // conservative restart of the straggler clock
		default:
			tm.enqueue(in)
		}
	}
	tm.jm.store.SaveTask(tm.name, true, false, len(tm.instances))
	if tm.doneCount == len(tm.instances) {
		tm.complete()
	}
}

// finishRecovery requeues running instances whose workers never reported
// during the grace window.
func (tm *taskMaster) finishRecovery() {
	if tm.completed {
		return
	}
	for _, in := range tm.instances {
		if in.state == InstanceRunning && !in.confirmed {
			in.attempt++
			tm.enqueue(in)
			tm.jm.store.SaveInstance(tm.name, in.id, InstanceSnap{State: InstancePending, Attempt: in.attempt})
		}
	}
	// Top up workers to the container ledger and demand to the target.
	// Starting workers leaves the ledger as it is, so its rows are read in
	// place.
	for _, c := range tm.jm.am.HeldCells(tm.unitID) {
		m := int32(c.Key)
		if extra := c.Val - tm.workersOn(m); extra > 0 {
			tm.grantArrived(m, extra)
		}
	}
	have := tm.jm.am.HeldTotal(tm.unitID) + tm.jm.am.Outstanding(tm.unitID)
	if want := tm.desiredWorkers(); want > have {
		tm.requestWorkers(want - have)
	}
	// Re-feed idle workers.
	for _, w := range tm.workersByID(func(w *tmWorker) bool { return w.state == workerIdle }) {
		tm.assignNext(w)
	}
}

// adoptWorker registers a worker discovered through failover reports.
func (tm *taskMaster) adoptWorker(id uint32, machine int32) *tmWorker {
	w := tm.workers[id]
	if w == nil {
		w = &tmWorker{id: id, machine: machine, state: workerIdle, instance: -1}
		tm.workers[id] = w
		tm.jm.am.AdoptWorker(tm.unitID, machine, id)
		tm.jm.rt.Ensure(id, machine).Task = tm.name
	}
	return w
}

func (tm *taskMaster) String() string {
	return fmt.Sprintf("task %s: %d/%d done, %d workers", tm.name, tm.doneCount, len(tm.instances), len(tm.workers))
}
