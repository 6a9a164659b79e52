// Package appmaster provides the application-master framework every Fuxi
// computation paradigm builds on (paper §2.2): incremental demand tracking
// against FuxiMaster, a container ledger that separates resource grants from
// the tasks that run in them (§3.2.3 — containers are reused across task
// instances instead of being reclaimed per task as in YARN), worker
// lifecycle via FuxiAgents, and the periodic full-state safety sync.
//
// The container ledger and the grant/return protocol speak dense machine
// IDs (the topology index carried on the wire); resource callbacks hand the
// ID through, and MachineName converts at the job-layer boundary where
// names are needed (work plans, status reports, logs).
//
// The computation layer receives resource and worker events through the
// Callbacks interface, which the job's owner implements itself — a
// job.JobMaster, the scale harness's synthetic job — so starting an
// application master binds no closures; NoCallbacks is the embeddable no-op
// for owners that want only some of the four events. The
// grant and revoke callbacks run inside the handler of a pooled GrantUpdate
// (see internal/transport): they may send and re-request freely, but the
// message is the network's again once the handler returns.
//
// What an application master tells FuxiMaster in one virtual instant travels
// together: the instant's container returns and its demand, for every unit it
// asked for, in one DemandUpdate flushed at the instant's end — the
// incremental communication of paper §3.1, one message per receiver per step
// in each direction.
package appmaster

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/dense"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Config describes one application.
type Config struct {
	// App is both the application name and its transport endpoint.
	App        string
	QuotaGroup string
	Units      []resource.ScheduleUnit
	// FullSyncInterval is the period of the FullDemandSync safety message
	// (0 disables it; the protocol then relies purely on deltas).
	FullSyncInterval sim.Time
}

// Callbacks is how the computation layer reacts to resource and worker
// events. The application's owner implements it; embed NoCallbacks to
// implement only the events of interest.
type Callbacks interface {
	// OnGrant fires when count containers of a unit arrive on a machine
	// (identified by its dense ID; MachineName converts when needed).
	OnGrant(unitID int, machine int32, count int)
	// OnRevoke fires when count containers of a unit are revoked from a
	// machine (preemption, node death, blacklisting).
	OnRevoke(unitID int, machine int32, count int)
	// OnWorker fires for every WorkerStatus report.
	OnWorker(protocol.WorkerStatus)
	// OnMessage receives application-level messages addressed to the app
	// endpoint that are not part of the resource protocol (e.g. worker →
	// job-master task reports).
	OnMessage(from string, msg any)
}

// NoCallbacks ignores every event. It is what New uses for a nil Callbacks
// and what partial implementations embed.
type NoCallbacks struct{}

// OnGrant implements Callbacks.
func (NoCallbacks) OnGrant(int, int32, int) {}

// OnRevoke implements Callbacks.
func (NoCallbacks) OnRevoke(int, int32, int) {}

// OnWorker implements Callbacks.
func (NoCallbacks) OnWorker(protocol.WorkerStatus) {}

// OnMessage implements Callbacks.
func (NoCallbacks) OnMessage(string, any) {}

// unitLedger is one ScheduleUnit's books: the containers it holds and the
// demand it has stated that no grant has answered yet. Both are compact
// tables keyed by dense IDs — a unit holds containers on a handful of
// machines and waits at a handful of locality nodes — so a grant, a return or
// a re-demand touches a cache line or two of integers, hashes nothing and
// never builds a machine or rack name.
type unitLedger struct {
	held dense.Map[int] // machine ID -> containers held (no zero rows)
	out  dense.Map[int] // nodeKey(level, node ID) -> demand outstanding (no zero rows)
	// askedAt is when the oldest positive Request no grant has answered yet
	// was made, while waiting is set: the unit's next grant reports the wait
	// and clears it.
	askedAt sim.Time
	waiting bool
}

// nodeKey packs one locality node — (level, machine or rack ID; 0 at cluster
// level) — into a table key. Keys order by level first, then node ID.
func nodeKey(level resource.LocalityType, node int32) uint64 {
	return dense.Pack(int32(level), node)
}

func machineKey(machine int32) uint64 { return uint64(uint32(machine)) }

// AM is one application master.
type AM struct {
	cfg Config
	eng *sim.Engine
	net *transport.Net
	top *topology.Topology
	cb  Callbacks

	epID     transport.EndpointID // own endpoint
	masterID transport.EndpointID // the logical master endpoint

	// units holds each ScheduleUnit's ledger, parallel to cfg.Units, from
	// first use on. A one-unit job — every gateway and replay job — books in
	// unit0, inside the AM's own allocation, and units is a view of it; wider
	// jobs get one slice sized by their unit count, whatever the cluster's
	// size. The tables grow with what the job actually holds: tens of
	// thousands of short-lived jobs each pay for a few rows, not for a map
	// apiece.
	units []unitLedger
	unit0 [1]unitLedger
	// slab gives the ledgers' tables their first cells, two tables a unit,
	// so a forty-unit job's books cost a few chunks, not eighty allocations.
	slab dense.Slab[int]
	// ext names requested locality targets outside the topology.
	ext topology.Overflow
	// workers tracks every worker this application asked agents to run
	// (nil until the first StartWorker/AdoptWorker — gateway-scale job
	// populations never start simulated workers).
	workers map[string]*Worker

	seq   protocol.Sequencer
	dedup protocol.Dedup
	// sync is the periodic full-sync timer, owned here so starting it
	// allocates nothing.
	sync    sim.Ticker
	stopped bool
	// unregTries/unregArmed/unregDone drive the reliable-unregister retry
	// loop (see Unregister) through the closure-free timer path.
	unregTries int
	unregArmed bool
	unregDone  bool
	// upd coalesces one instant's master-bound traffic — its container
	// returns and its demand — into one DemandUpdate: a hold cycle releasing
	// containers on many machines and asking again for forty units costs one
	// message. It is the pooled message itself, accumulating entries in its
	// own payload buffers until the flush sends it, nil between instants.
	// armed marks the end-of-instant flush event as scheduled.
	upd   *protocol.DemandUpdate
	armed bool
	// nextGrantSync throttles gap-triggered early full syncs (see handle's
	// GrantUpdate case).
	nextGrantSync sim.Time
	// gate fences grant updates from a deposed primary (see
	// protocol.EpochGate).
	gate protocol.EpochGate
	// grantLevel is the narrowest locality level the grant being handed to
	// OnGrant consumed demand at, grantWait how long the request it answered
	// waited, if it was the first to answer one (see GrantLevel, GrantWait).
	grantLevel resource.LocalityType
	grantWait  sim.Time
	grantTimed bool
}

// Worker is the application's view of one worker process.
type Worker struct {
	ID      string
	Machine string
	UnitID  int
	State   protocol.WorkerState
	// PlannedAt is when the work plan was sent; the first Running report
	// minus PlannedAt is the paper's "worker start overhead" (Table 2).
	PlannedAt sim.Time
	RunningAt sim.Time
}

// New creates and starts an application master: it registers its endpoint
// and announces itself to FuxiMaster.
func New(cfg Config, eng *sim.Engine, net *transport.Net, top *topology.Topology, cb Callbacks) *AM {
	if cb == nil {
		cb = NoCallbacks{}
	}
	a := &AM{cfg: cfg, eng: eng, net: net, top: top, cb: cb}
	a.epID = net.Register(cfg.App, a.handle)
	a.masterID = net.Endpoint(protocol.MasterEndpoint)
	a.sendRegister()
	if cfg.FullSyncInterval > 0 {
		a.sync.Start(eng, cfg.FullSyncInterval, tickFullSync, a)
	}
	return a
}

// The AM's timer bodies, as package-level functions of the AM: scheduling
// one binds no method value.
func tickFullSync(a any)   { a.(*AM).fullSync() }
func tickFlush(a any)      { a.(*AM).flush() }
func tickUnregister(a any) { a.(*AM).unregTick() }

// sendRegister announces the application's configuration to FuxiMaster. Units
// travels as the AM's own slice, which nobody mutates.
func (a *AM) sendRegister() {
	r := transport.Acquire[protocol.RegisterApp](a.net)
	r.App, r.QuotaGroup, r.Units, r.Seq = a.cfg.App, a.cfg.QuotaGroup, a.cfg.Units, a.seq.Next()
	a.sendToMaster(r)
}

func (a *AM) send(to string, msg transport.Message) { a.net.SendID(a.epID, a.net.Endpoint(to), msg) }

func (a *AM) sendToMaster(msg transport.Message) { a.net.SendID(a.epID, a.masterID, msg) }

// unitIndex returns the position of unitID in cfg.Units, or -1. Units are
// almost always numbered 1..n in order, so the guess is checked first; the
// fallback scan of the config slice beats a per-AM map at gateway population
// scales.
func (a *AM) unitIndex(unitID int) int {
	units := a.cfg.Units
	if i := unitID - 1; i >= 0 && i < len(units) && units[i].ID == unitID {
		return i
	}
	for i := range units {
		if units[i].ID == unitID {
			return i
		}
	}
	return -1
}

// unit returns the definition of unitID (found reports success).
func (a *AM) unit(unitID int) (resource.ScheduleUnit, bool) {
	if i := a.unitIndex(unitID); i >= 0 {
		return a.cfg.Units[i], true
	}
	return resource.ScheduleUnit{}, false
}

// ledger returns the books of the unit at position ui of cfg.Units.
func (a *AM) ledger(ui int) *unitLedger {
	if a.units == nil {
		if n := len(a.cfg.Units); n <= len(a.unit0) {
			a.units = a.unit0[:n]
		} else {
			a.units = make([]unitLedger, n)
		}
		a.slab.Expect(2 * len(a.units))
	}
	return &a.units[ui]
}

// peekLedger is ledger for readers: nil when the unit is unknown or nothing
// has been booked yet.
func (a *AM) peekLedger(unitID int) *unitLedger {
	if ui := a.unitIndex(unitID); ui >= 0 && a.units != nil {
		return &a.units[ui]
	}
	return nil
}

// hintKey resolves a locality hint's target name to its table key — the one
// place this side turns a name into an ID, once per stated hint.
func (a *AM) hintKey(h resource.LocalityHint) uint64 {
	if h.Type != resource.LocalityMachine && h.Type != resource.LocalityRack {
		return nodeKey(resource.LocalityCluster, 0)
	}
	return nodeKey(h.Type, a.ext.Node(a.top, h.Type, h.Value))
}

// keyHint is the inverse of hintKey at the full-sync boundary.
func (a *AM) keyHint(k uint64, count int) resource.LocalityHint {
	level, node := resource.LocalityType(k>>32), int32(uint32(k))
	return resource.LocalityHint{Type: level, Value: a.ext.Name(a.top, level, node), Count: count}
}

// MachineName converts a dense machine ID to its name (the job-layer
// boundary conversion; a slice index, not a hash).
func (a *AM) MachineName(id int32) string { return a.top.MachineName(id) }

// Request adds (or with negative counts, withdraws) demand for one unit. The
// change joins the instant's DemandUpdate, appended in call order, which
// carries everything the application asked for in this instant and leaves at
// its end — the only message needed no matter how much of the demand is
// eventually fulfilled, since FuxiMaster queues the remainder. The hints are
// copied into the message, so the caller's slice (usually the variadic call's
// own stack array) is free the moment Request returns.
func (a *AM) Request(unitID int, hints ...resource.LocalityHint) {
	ui := a.unitIndex(unitID)
	if ui < 0 {
		return
	}
	l := a.ledger(ui)
	out := &l.out
	// Fast path: additions can never need dropping or clamping (clamping
	// only guards withdrawals, and checking those per-hint would miss
	// cumulative over-withdrawal on a repeated target) — ship the caller's
	// hints without building a filtered list.
	clean := true
	for _, h := range hints {
		if h.Count <= 0 {
			clean = false
			break
		}
	}
	deltas := hints
	if clean {
		for _, h := range hints {
			*out.PutFrom(&a.slab, a.hintKey(h)) += h.Count
		}
		if len(deltas) == 0 {
			return
		}
	} else {
		var valid []resource.LocalityHint
		for _, h := range hints {
			if h.Count == 0 {
				continue
			}
			k := a.hintKey(h)
			n := out.Get(k) + h.Count
			if n < 0 {
				h.Count -= n // clamp withdrawal at zero outstanding
				n = 0
			}
			if h.Count == 0 {
				continue
			}
			if n == 0 {
				out.Delete(k)
			} else {
				*out.PutFrom(&a.slab, k) = n
			}
			valid = append(valid, h)
		}
		if len(valid) == 0 {
			return
		}
		deltas = valid
	}
	// The wait clock: a positive request starts it unless it runs already, and
	// it stops when nothing is left outstanding.
	for _, h := range deltas {
		if h.Count > 0 && !l.waiting {
			l.askedAt, l.waiting = a.eng.Now(), true
		}
	}
	l.waiting = l.waiting && out.Len() > 0
	u := a.pending()
	for _, h := range deltas {
		u.Deltas = append(u.Deltas, protocol.UnitHint{UnitID: unitID, LocalityHint: h})
	}
}

// pending returns the instant's DemandUpdate, drawn from the network's pool
// on first use, with its end-of-instant flush scheduled.
func (a *AM) pending() *protocol.DemandUpdate {
	if a.upd == nil {
		a.upd = transport.Acquire[protocol.DemandUpdate](a.net)
	}
	if !a.armed {
		a.armed = true
		a.eng.Post(0, tickFlush, a)
	}
	return a.upd
}

// ReturnContainers gives count held containers on a machine back to
// FuxiMaster (workers inside them must already be stopped). The return joins
// the instant's DemandUpdate, which FuxiMaster applies returns first, and
// leaves at the instant's end (or eagerly, before any other master-bound
// message, so the protocol stream stays ordered).
func (a *AM) ReturnContainers(unitID int, machine int32, count int) {
	l := a.peekLedger(unitID)
	if l == nil || count <= 0 {
		return
	}
	if l.held.Get(machineKey(machine)) < count {
		return
	}
	dense.Take(&l.held, machineKey(machine), count)
	u := a.pending()
	u.Returns = append(u.Returns, protocol.ReturnEntry{UnitID: unitID, Machine: machine, Count: count})
}

// ReturnContainersOn is the name-keyed wrapper of ReturnContainers for
// boundary callers that track machines by name.
func (a *AM) ReturnContainersOn(unitID int, machine string, count int) {
	if id := a.top.MachineID(machine); id >= 0 {
		a.ReturnContainers(unitID, id, count)
	}
}

// flush sends the instant's coalesced traffic as the pooled DemandUpdate it
// accumulated in. The field is cleared first, so the eager flushes and the
// end-of-instant tick can never send one message twice; the next instant
// draws its own. After the process died it is dropped unsent — a crash loses
// unsent messages by design.
func (a *AM) flush() {
	a.armed = false
	if a.stopped {
		a.drop()
		return
	}
	if u := a.upd; u != nil {
		a.upd = nil
		u.App, u.Seq = a.cfg.App, a.seq.Next()
		a.sendToMaster(u)
	}
}

// drop discards the instant's unsent returns and demand, handing the pooled
// message back to the network.
func (a *AM) drop() {
	if a.upd != nil {
		a.net.Release(a.upd)
		a.upd = nil
	}
}

// StartWorker sends a work plan to a machine's agent for one held container.
func (a *AM) StartWorker(unitID int, machine int32, workerID string) {
	u, ok := a.unit(unitID)
	if !ok {
		return
	}
	name := a.top.MachineName(machine)
	if a.workers == nil {
		a.workers = make(map[string]*Worker)
	}
	a.workers[workerID] = &Worker{
		ID: workerID, Machine: name, UnitID: unitID,
		State: protocol.WorkerStarting, PlannedAt: a.eng.Now(),
	}
	a.send(protocol.AgentEndpoint(name), protocol.WorkPlan{
		App: a.cfg.App, UnitID: unitID, WorkerID: workerID, Size: u.Size, Seq: a.seq.Next(),
	})
}

// StartWorkerOn is the name-keyed wrapper of StartWorker for job-layer
// callers that track machines by name.
func (a *AM) StartWorkerOn(unitID int, machine string, workerID string) {
	if id := a.top.MachineID(machine); id >= 0 {
		a.StartWorker(unitID, id, workerID)
	}
}

// AdoptWorker records a worker that is already running (discovered through
// failover status reports) without sending a new work plan.
func (a *AM) AdoptWorker(unitID int, machine, workerID string) {
	if _, ok := a.workers[workerID]; ok {
		return
	}
	if a.workers == nil {
		a.workers = make(map[string]*Worker)
	}
	a.workers[workerID] = &Worker{
		ID: workerID, Machine: machine, UnitID: unitID,
		State: protocol.WorkerRunning, PlannedAt: a.eng.Now(), RunningAt: a.eng.Now(),
	}
}

// Crash simulates the application-master process dying: the endpoint goes
// dark and timers stop, but nothing is sent to FuxiMaster — grants stay
// allocated, exactly the state a failover successor inherits.
func (a *AM) Crash() {
	if a.stopped {
		return
	}
	a.stopped = true
	a.sync.Stop()
	a.net.Unregister(a.cfg.App)
}

// StopWorker terminates a worker (the container stays held for reuse).
func (a *AM) StopWorker(workerID string) {
	w := a.workers[workerID]
	if w == nil {
		return
	}
	delete(a.workers, workerID)
	a.send(protocol.AgentEndpoint(w.Machine), protocol.StopWorker{
		App: a.cfg.App, WorkerID: workerID, Seq: a.seq.Next(),
	})
}

// StopWorkerOn sends a stop directly to a machine's agent for a worker the
// application no longer tracks (e.g. reaping an agent-auto-restarted copy
// of a worker the application already replaced).
func (a *AM) StopWorkerOn(machine, workerID string) {
	a.send(protocol.AgentEndpoint(machine), protocol.StopWorker{
		App: a.cfg.App, WorkerID: workerID, Seq: a.seq.Next(),
	})
}

// ReportBadMachine escalates a job-level blacklist verdict to FuxiMaster.
func (a *AM) ReportBadMachine(machine string) {
	id := a.top.MachineID(machine)
	if id < 0 {
		return
	}
	a.flush()
	a.sendToMaster(protocol.BadMachineReport{
		App: a.cfg.App, Machine: id, Seq: a.seq.Next(),
	})
}

// unregRetry is the initial re-send delay for an unacknowledged
// UnregisterApp; the delay doubles per attempt up to unregRetryCap, with
// deterministic per-app jitter, so a mass teardown during a master outage
// does not re-send in lockstep when the master returns. unregMaxTries bounds
// the attempts (so an application on a cluster whose masters never return
// still terminates, accepting the strand a dead control plane implies
// anyway).
const (
	unregRetry    = 2 * sim.Second
	unregRetryCap = 10 * sim.Second
	unregMaxTries = 30
)

// FNV-1a constants for the jitter hash. Jitter must NOT come from the
// engine's random stream: retry timing would then perturb every other
// consumer's draws and change unrelated recorded results.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// unregDelay returns the backoff before the next unregister attempt:
// exponential from unregRetry, capped at unregRetryCap, plus up to 25%
// jitter hashed from (app name, attempt) so concurrent teardowns desync.
func (a *AM) unregDelay() sim.Time {
	d := unregRetry
	for i := 1; i < a.unregTries && d < unregRetryCap; i++ {
		d *= 2
	}
	if d > unregRetryCap {
		d = unregRetryCap
	}
	h := fnvOffset
	for i := 0; i < len(a.cfg.App); i++ {
		h = (h ^ uint64(a.cfg.App[i])) * fnvPrime
	}
	h = (h ^ uint64(a.unregTries)) * fnvPrime
	return d + sim.Time(h%uint64(d/4+1))
}

// Unregister ends the application: all resources return to the cluster.
// The endpoint stays registered until FuxiMaster acknowledges — an
// unregister lost with a crashing primary must be replayed to the promoted
// successor (which resurrects the app's grants from agent anchors and would
// otherwise strand them forever), so the app lingers, re-sending on the
// successor's MasterHello and on a bounded retry timer, and tears down on
// the UnregisterAck. The unregister goes out alone: FuxiMaster's unregister
// releases every container the app holds and withdraws all it waits for, so
// the instant's unsent update is dropped, not flushed ahead of it.
func (a *AM) Unregister() {
	if a.stopped {
		return
	}
	a.drop()
	a.stopped = true
	a.sync.Stop()
	a.sendUnregister()
}

func (a *AM) sendUnregister() {
	if a.unregDone {
		return
	}
	a.unregTries++
	u := transport.Acquire[protocol.UnregisterApp](a.net)
	u.App, u.Seq = a.cfg.App, a.seq.Next()
	a.sendToMaster(u)
	if a.unregTries >= unregMaxTries {
		a.finishUnregister()
		return
	}
	if !a.unregArmed {
		a.unregArmed = true
		a.eng.Post(a.unregDelay(), tickUnregister, a)
	}
}

// unregTick is the bounded retry timer body; unregDone makes a tick armed
// before the ack a no-op, so no cancellation handle is needed.
func (a *AM) unregTick() {
	a.unregArmed = false
	if a.unregDone {
		return
	}
	a.sendUnregister()
}

// finishUnregister completes the teardown once the master confirmed (or the
// retry budget ran out). The books go with it: the job holds and wants nothing
// any more, so an owner that keeps the finished AM — and a retry tick still
// queued — keeps only the struct alive, not a ledger per unit. So does the
// endpoint: a finished application never comes back under its name, so the
// network retires it and recycles its slot (a crashed one, which a successor
// may resume, only unregisters).
func (a *AM) finishUnregister() {
	a.unregDone = true
	a.net.Retire(a.epID)
	a.units, a.unit0, a.slab = nil, [1]unitLedger{}, dense.Slab[int]{}
}

// Held returns the container count held for unit on a machine (by ID).
func (a *AM) Held(unitID int, machine int32) int {
	if l := a.peekLedger(unitID); l != nil {
		return l.held.Get(machineKey(machine))
	}
	return 0
}

// HeldOn returns the container count held for unit on a machine by name.
func (a *AM) HeldOn(unitID int, machine string) int {
	id := a.top.MachineID(machine)
	if id < 0 {
		return 0
	}
	return a.Held(unitID, id)
}

// HeldTotal returns all containers held for a unit.
func (a *AM) HeldTotal(unitID int) int {
	n := 0
	if l := a.peekLedger(unitID); l != nil {
		for _, c := range l.held.Cells() {
			n += c.Val
		}
	}
	return n
}

// HeldMachines returns the machine names holding containers for a unit, in
// machine-ID (= sorted-name) order.
func (a *AM) HeldMachines(unitID int) []string {
	l := a.peekLedger(unitID)
	if l == nil || l.held.Len() == 0 {
		return nil
	}
	out := make([]string, 0, l.held.Len())
	for _, c := range l.held.Cells() {
		out = append(out, a.top.MachineName(int32(c.Key)))
	}
	return out
}

// ObtainedTotal sums the resource vectors of all held containers (the
// paper's AM_obtained metric).
func (a *AM) ObtainedTotal() resource.Vector {
	var t resource.Vector
	for ui := range a.units {
		if n := a.HeldTotal(a.cfg.Units[ui].ID); n > 0 {
			t = t.Add(a.cfg.Units[ui].Size.Scale(int64(n)))
		}
	}
	return t
}

// Outstanding returns this side's view of unfulfilled demand for a unit.
func (a *AM) Outstanding(unitID int) int {
	n := 0
	if l := a.peekLedger(unitID); l != nil {
		for _, c := range l.out.Cells() {
			n += c.Val
		}
	}
	return n
}

// Worker returns the application's view of a worker (nil when unknown).
func (a *AM) Worker(id string) *Worker { return a.workers[id] }

// GrantLevel is the narrowest locality level — machine, rack or cluster —
// at which the grant OnGrant is handling consumed this application's
// outstanding demand. It is meaningful only inside OnGrant.
func (a *AM) GrantLevel() resource.LocalityType { return a.grantLevel }

// GrantWait is how long the unit's oldest unanswered positive Request waited
// for the grant OnGrant is handling; ok is false when an earlier grant
// already answered it. Like GrantLevel, it is meaningful only inside OnGrant.
func (a *AM) GrantWait() (wait sim.Time, ok bool) { return a.grantWait, a.grantTimed }

// App returns the application name.
func (a *AM) App() string { return a.cfg.App }

// ID returns the endpoint ID the application master listens at, which stays
// its ID after the endpoint is retired at the unregister ack.
func (a *AM) ID() transport.EndpointID { return a.epID }

// Units returns the application's ScheduleUnit definitions.
func (a *AM) Units() []resource.ScheduleUnit { return a.cfg.Units }

// Stopped reports whether the application master has crashed or
// unregistered.
func (a *AM) Stopped() bool { return a.stopped }

// MasterEpoch returns the highest master election epoch observed (0 before
// any epoch-stamped message arrived).
func (a *AM) MasterEpoch() int { return a.gate.Current() }

// HeldCells returns a unit's container ledger as (machine ID, count) rows in
// machine order, for the readers that compare it against the master's (the
// invariant checker, the failover probe). The slice is the ledger itself:
// read it, do not keep or modify it.
func (a *AM) HeldCells(unitID int) []dense.Cell[int] {
	if l := a.peekLedger(unitID); l != nil {
		return l.held.Cells()
	}
	return nil
}

// staleEpoch fences grant updates from a deposed primary, resetting the
// master dedup channel when a genuinely newer epoch appears.
func (a *AM) staleEpoch(epoch int) bool {
	return a.gate.StaleCh(epoch, &a.dedup, int32(a.masterID), protocol.ChanGrant)
}

// ---------------------------------------------------------------------------
// message handling
// ---------------------------------------------------------------------------

func (a *AM) handle(from transport.EndpointID, msg transport.Message) {
	if a.stopped {
		// The app lingers only to finish the reliable unregister: tear down
		// on the ack, replay immediately to a freshly-promoted primary
		// (whose hello means it may just have resurrected this app's grants
		// from agent anchors), ignore everything else.
		switch t := msg.(type) {
		case *protocol.UnregisterAck, protocol.UnregisterAck:
			a.finishUnregister()
		case protocol.MasterHello:
			if !a.staleEpoch(t.Epoch) {
				a.sendUnregister()
			}
		}
		return
	}
	switch t := msg.(type) {
	case *protocol.GrantUpdate:
		// Pooled: t and t.Changes are the network's again when this returns.
		// applyGrant books the changes into the ledger and hands the
		// callbacks plain integers, so nothing of the message is kept.
		// A malformed update is dropped whole, before the epoch gate or the
		// dedup mark moves.
		if !a.wellFormed(t) || a.staleEpoch(t.Epoch) {
			return
		}
		v := a.dedup.ObserveCh(int32(from), protocol.ChanGrant, t.Seq)
		if v == protocol.Duplicate {
			return
		}
		a.applyGrant(t)
		if v == protocol.Gap {
			// Grant updates are sequenced per application, so a gap means an
			// update to THIS app was lost on the wire. Push the full picture
			// now (after applying the carried changes, so the snapshot is
			// current) instead of drifting until the periodic safety sync —
			// on a lossy link that wait would dominate reconvergence.
			a.requestGrantSync()
		}
	case protocol.GrantUpdate:
		a.handle(from, &t) // value form (tests, scripted masters)
	case protocol.WorkerStatus:
		a.applyWorkerStatus(t)
	case protocol.MasterHello:
		// New primary rebuilding soft state: re-send configuration and the
		// full resource picture (paper Figure 7). Already-assigned
		// resources are kept throughout. The epoch gate forgets the dead
		// master's sequence numbers only for a genuinely newer epoch — a
		// duplicated hello must not reopen the door to replaying the new
		// master's own updates.
		if a.staleEpoch(t.Epoch) {
			return
		}
		a.sendRegister()
		a.fullSync()
	case protocol.WorkerListRequest:
		a.replyWorkerList(t.Machine)
	case *protocol.UnregisterAck, protocol.UnregisterAck:
		// A stale ack for a previous application that reused this endpoint
		// name; nothing to do.
	default:
		// from is live (the network fences retired senders): its name is the
		// sender's own, never a later owner's of its slot.
		a.cb.OnMessage(a.net.Name(from), msg)
	}
}

// wellFormed is GrantUpdate.WellFormed — no zero delta — plus what only a
// receiver that knows the topology can check: every entry names one of its
// machines. A grant on a machine outside it would index the
// rack table out of range while booking the demand it consumed.
func (a *AM) wellFormed(t *protocol.GrantUpdate) bool {
	n := int32(a.top.Size())
	for _, ch := range t.Changes {
		if ch.Machine < 0 || ch.Machine >= n {
			return false
		}
	}
	return t.WellFormed()
}

// applyGrant books a grant update's entries in order, unit run by unit run;
// a unit that comes back in a later run is booked there. Entries of units
// this application never defined are passed over.
func (a *AM) applyGrant(t *protocol.GrantUpdate) {
	for rest := t.Changes; len(rest) > 0; {
		var run []protocol.UnitDelta
		run, rest = protocol.NextRun(rest)
		unitID := run[0].UnitID
		ui := a.unitIndex(unitID)
		if ui < 0 {
			continue
		}
		// The callbacks may re-enter (a revocation handler re-requests at
		// once), so no table pointer is held across one; l itself is stable,
		// the ledger slice is never reallocated.
		l := a.ledger(ui)
		for _, ch := range run {
			k := machineKey(ch.Machine)
			if ch.Delta > 0 {
				*l.held.PutFrom(&a.slab, k) += ch.Delta
				a.grantLevel = a.consumeOutstanding(l, ch.Machine, ch.Delta)
				a.grantWait, a.grantTimed = a.eng.Now()-l.askedAt, l.waiting
				l.waiting = false
				a.cb.OnGrant(unitID, ch.Machine, ch.Delta)
			} else if ch.Delta < 0 {
				n := min(-ch.Delta, l.held.Get(k))
				if n == 0 {
					continue
				}
				dense.Take(&l.held, k, n)
				a.cb.OnRevoke(unitID, ch.Machine, n)
			}
		}
	}
}

// consumeOutstanding mirrors the master's grant accounting on the demand
// view: a grant on machine M consumes machine-level demand on M first, then
// rack-level demand on rack(M), then cluster-level demand. Any residual
// divergence is repaired by the periodic full sync. It returns the narrowest
// level it consumed demand at (cluster when it found none).
func (a *AM) consumeOutstanding(l *unitLedger, machine int32, count int) resource.LocalityType {
	level := resource.LocalityCluster
	for i, k := range [...]uint64{
		nodeKey(resource.LocalityMachine, machine),
		nodeKey(resource.LocalityRack, a.top.RackIDOf(machine)),
		nodeKey(resource.LocalityCluster, 0),
	} {
		if count == 0 {
			break
		}
		if n := dense.Take(&l.out, k, count); n > 0 {
			level = min(level, resource.LocalityType(i))
			count -= n
		}
	}
	return level
}

func (a *AM) applyWorkerStatus(t protocol.WorkerStatus) {
	w := a.workers[t.WorkerID]
	if w != nil {
		w.State = t.State
		if t.State == protocol.WorkerRunning && w.RunningAt == 0 {
			w.RunningAt = a.eng.Now()
		}
		if t.State == protocol.WorkerFailed || t.State == protocol.WorkerFinished {
			delete(a.workers, t.WorkerID)
		}
	}
	a.cb.OnWorker(t)
}

func (a *AM) replyWorkerList(machine string) {
	var plans []protocol.WorkPlan
	ids := make([]string, 0)
	for id, w := range a.workers {
		if w.Machine == machine {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		w := a.workers[id]
		u, _ := a.unit(w.UnitID)
		plans = append(plans, protocol.WorkPlan{
			App: a.cfg.App, UnitID: w.UnitID, WorkerID: w.ID, Size: u.Size,
		})
	}
	a.send(protocol.AgentEndpoint(machine), protocol.WorkerListReply{
		App: a.cfg.App, Workers: plans, Seq: a.seq.Next(),
	})
}

// grantSyncMin throttles gap-triggered early syncs: one full sync per window
// repairs everything the window's losses broke, so piling on more per lost
// message only burns wire.
const grantSyncMin = 500 * sim.Millisecond

// requestGrantSync pushes a full sync immediately after a grant-stream gap,
// throttled so a burst of losses costs one repair.
func (a *AM) requestGrantSync() {
	now := a.eng.Now()
	if now < a.nextGrantSync {
		return
	}
	a.nextGrantSync = now + grantSyncMin
	a.fullSync()
}

// fullSync sends the complete demand and grant picture to FuxiMaster.
func (a *AM) fullSync() {
	// Pending returns are already subtracted from the held ledger below, and
	// pending demand is already added to the outstanding one; flush them
	// first, or the master would see phantom grants and emit revocation fixes
	// for containers the app already gave back, and apply the demand twice
	// when its update arrived after the sync.
	a.flush()
	s := transport.Acquire[protocol.FullDemandSync](a.net)
	s.App, s.QuotaGroup, s.Units, s.Seq = a.cfg.App, a.cfg.QuotaGroup, a.cfg.Units, a.seq.Current()
	s.SeenGrantSeq = a.dedup.LastCh(int32(a.masterID), protocol.ChanGrant)
	// Each unit's ledgers become its runs, copied straight out of the
	// key-sorted tables: held cells are in machine order already; demand
	// cells are in (level, node ID) order, which differs from the wire's
	// (level, name) only for names outside the topology.
	for ui := range a.units {
		l, unitID := &a.units[ui], a.cfg.Units[ui].ID
		n := len(s.Demand)
		for _, c := range l.out.Cells() {
			s.Demand = append(s.Demand, protocol.UnitHint{UnitID: unitID, LocalityHint: a.keyHint(c.Key, c.Val)})
		}
		slices.SortFunc(s.Demand[n:], func(x, y protocol.UnitHint) int {
			return resource.CompareHints(x.LocalityHint, y.LocalityHint)
		})
		for _, c := range l.held.Cells() {
			s.Held = append(s.Held, protocol.SyncHeld{UnitID: unitID, Machine: int32(c.Key), Count: c.Val})
		}
	}
	// Runs go in unit-ID order; a job that defined its units out of order
	// has them re-ordered here, each run intact.
	if !slices.IsSortedFunc(a.cfg.Units, func(x, y resource.ScheduleUnit) int { return cmp.Compare(x.ID, y.ID) }) {
		slices.SortStableFunc(s.Demand, func(x, y protocol.UnitHint) int { return cmp.Compare(x.UnitID, y.UnitID) })
		slices.SortStableFunc(s.Held, func(x, y protocol.SyncHeld) int { return cmp.Compare(x.UnitID, y.UnitID) })
	}
	a.sendToMaster(s)
}
