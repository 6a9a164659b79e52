// Package agent implements FuxiAgent, the per-machine daemon (paper §2.2).
// Its two roles are status collection (periodic heartbeats with local
// allocations and a plugin-derived health score) and process management with
// isolation: workers start only inside granted capacity ("resource capacity
// ensurance"), excess processes are killed when capacity shrinks, and the
// machine-overload guard kills the worst over-user.
//
// The daemon and the worker processes it supervises fail independently: a
// daemon crash leaves processes running (its failover re-adopts them, paper
// §4.3.1), while a machine crash kills everything.
//
// Hot-path identifiers: the agent speaks its dense machine ID on the wire
// (heartbeats, capacity queries, worker statuses, worker-list requests) and
// keys its capacity ledger by the application master's transport endpoint ID
// — the integer the master's capacity messages carry and the heartbeat tables
// send back, the same in every master epoch — so neither the per-round
// capacity-delta decode nor the beat resolves a name. The process table keys
// a worker the same way: (application master endpoint ID, worker number),
// where the endpoint is the work plan's sender. A stop or a worker-list reply
// reaches only its sender's own processes, and a plan runs only inside its
// sender's capacity, so an application cannot act on another's workers by
// naming them. A name appears only at the boundary: Capacity's application.
package agent

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Config tunes a FuxiAgent.
type Config struct {
	// WorkerStartDelay models process start cost: package download plus
	// exec (the paper's Table 2 attributes its 11.84 s worker-start
	// overhead to downloading ~400 MB worker binaries). Zero takes
	// defaultWorkerStartDelay.
	WorkerStartDelay sim.Time
}

const (
	// heartbeatInterval is the AgentHeartbeat period.
	heartbeatInterval = sim.Second
	// AnchorEvery is the anchor period of the heartbeat stream: every
	// AnchorEvery-th beat carries the complete allocation table (Full), and
	// the beats between carry liveness and health only.
	AnchorEvery = 10
	// defaultWorkerStartDelay is the start cost of a worker process when
	// the Config names none.
	defaultWorkerStartDelay = 500 * sim.Millisecond
)

// capKey packs one (app, unit) capacity address into a single integer — the
// application master's endpoint ID in the high half, the unit ID in the low
// half. The ID is the full one, slot and generation: a row a finished
// application master left behind (its release still in flight) never reads as
// a row of the slot's later owner.
type capKey uint64

func makeCapKey(app transport.EndpointID, unitID int) capKey {
	return capKey(uint64(uint32(app))<<32 | uint64(uint32(unitID)))
}

func (k capKey) app() transport.EndpointID { return transport.EndpointID(int32(uint32(k >> 32))) }
func (k capKey) unitID() int               { return int(int32(uint32(k))) }

// procKey packs one worker process's identity — the application master's
// endpoint ID in the high half, its worker number in the low half — the way
// capKey packs a capacity row, so keys order by (application, worker).
type procKey uint64

func makeProcKey(app transport.EndpointID, worker uint32) procKey {
	return procKey(uint64(uint32(app))<<32 | uint64(worker))
}

func (k procKey) app() transport.EndpointID { return transport.EndpointID(int32(uint32(k >> 32))) }
func (k procKey) worker() uint32            { return uint32(k) }

// capTable is the machine's capacity ledger: one row per packed (app, unit)
// key with its granted container count, in arrival order, in one contiguous
// array. A row is the key and the count alone — enforcement and the anchor
// beat read nothing else — so the table holds no pointers and the collector
// never scans it, and a growth is one allocation. A machine holds a few
// dozen (app, unit) rows, so finding one is a scan of a handful of cache
// lines of integers. Zero-count rows stay until the next anchor so a
// returning grant reuses its row.
type capTable struct {
	rows []capRow
}

// capRow is one ledger row: a key and its granted container count.
type capRow struct {
	key   capKey
	count int
}

// find returns k's index, or -1.
func (t *capTable) find(k capKey) int {
	for i := range t.rows {
		if t.rows[i].key == k {
			return i
		}
	}
	return -1
}

// slot returns k's index, appending an empty row when k is new.
func (t *capTable) slot(k capKey) int {
	i := t.find(k)
	if i < 0 {
		i = len(t.rows)
		if i == cap(t.rows) {
			// Grow from a size most machines never outgrow twice.
			t.rows = append(make([]capRow, 0, max(16, 2*i)), t.rows...)
		}
		t.rows = append(t.rows, capRow{key: k})
	}
	return i
}

// count returns k's granted container count (0 when absent).
func (t *capTable) count(k capKey) int {
	if i := t.find(k); i >= 0 {
		return t.rows[i].count
	}
	return 0
}

// reap drops the zero-count rows, keeping the others in order.
func (t *capTable) reap() {
	w := 0
	for _, r := range t.rows {
		if r.count > 0 {
			t.rows[w] = r
			w++
		}
	}
	t.rows = t.rows[:w]
}

// reset empties the table, keeping its storage.
func (t *capTable) reset() { t.rows = t.rows[:0] }

// Proc is one supervised worker process. Its key is (the endpoint ID of the
// application master whose plan started it, the worker number the plan
// carried): capacity enforcement matches the process to its ledger rows by
// that endpoint, status reports go to it, and only its stops and worker-list
// replies reach the process.
type Proc struct {
	key    procKey
	UnitID int
	Size   resource.Vector
	State  protocol.WorkerState
	// Usage is the measured consumption; fault injection inflates it to
	// trigger the overload killer. It defaults to Size.
	Usage resource.Vector

	startTimer sim.Cancel
}

// Agent is the per-machine daemon.
type Agent struct {
	Machine string

	cfg      Config
	eng      *sim.Engine
	net      *transport.Net
	cap      resource.Vector
	id       int32                // dense machine ID (on the wire)
	epID     transport.EndpointID // own endpoint
	masterID transport.EndpointID // the logical master endpoint

	// procs is the machine's OS process table: it belongs to the machine,
	// not the daemon, so it survives daemon crashes.
	procs map[procKey]*Proc
	// planSeen holds the highest work-plan sequence number seen for each
	// worker, keyed like procs. It is daemon memory, reset with dedup, and is
	// made at the first plan: an agent that never runs a worker keeps none.
	planSeen map[procKey]uint64

	// capacity is the granted-capacity ledger (daemon memory: lost on a
	// daemon crash and rebuilt from the master's CapacitySync).
	capacity  capTable
	daemonUp  bool
	machineUp bool
	broken    bool // disk corrupted: processes cannot be launched
	health    int
	// gate fences capacity messages from a deposed primary: applying one
	// would desynchronize this table from the successor's rebuilt ledger.
	gate protocol.EpochGate
	// HealthCollector is the plugin hook combining disk statistics,
	// machine load and network I/O into one score (paper §4.3.2); tests
	// and fault injectors override it.
	HealthCollector func() int

	seq    protocol.Sequencer
	dedup  protocol.Dedup
	timers []sim.Cancel
	// nextAnchorReq throttles gap-repair capacity queries: a partition that
	// eats a burst of deltas must produce one query per throttle window,
	// not one per surviving delta.
	nextAnchorReq sim.Time

	// Anchor state: sinceAnchor counts beats since the last full-table
	// anchor, and forceAnchor requests an immediate anchor (a restart, a
	// capacity sync replacing the whole table, or a MasterHello from a
	// promoted primary collecting soft state).
	sinceAnchor int
	forceAnchor bool

	// KilledForCapacity and KilledForOverload count enforcement actions.
	KilledForCapacity int
	KilledForOverload int
	// ClampedNegative counts capacity deltas that would have taken a count
	// below zero and were clamped there: the master released more than this
	// ledger held, i.e. the two had diverged (a release racing a CapacitySync
	// that already reflected it, or a lost grant). Fault-free runs keep it 0.
	ClampedNegative int
}

// New starts a FuxiAgent for machine m and registers its endpoint.
func New(cfg Config, eng *sim.Engine, net *transport.Net, m *topology.Machine) *Agent {
	a := &Agent{
		Machine:   m.Name,
		cfg:       cfg,
		eng:       eng,
		net:       net,
		cap:       m.Capacity,
		id:        m.ID(),
		procs:     make(map[procKey]*Proc),
		daemonUp:  true,
		machineUp: true,
		health:    100,
	}
	if a.cfg.WorkerStartDelay == 0 {
		a.cfg.WorkerStartDelay = defaultWorkerStartDelay
	}
	a.forceAnchor = true // first beat announces the (empty) table in full
	a.HealthCollector = func() int { return a.health }
	a.epID = net.Register(a.endpoint(), a.handle)
	a.masterID = net.Endpoint(protocol.MasterEndpoint)
	a.timers = append(a.timers, eng.Every(heartbeatInterval, a.tick))
	return a
}

func (a *Agent) endpoint() string { return protocol.AgentEndpoint(a.Machine) }

// ID returns the agent's dense machine ID.
func (a *Agent) ID() int32 { return a.id }

// SetHealth sets the base health score returned by the default collector.
func (a *Agent) SetHealth(score int) { a.health = score }

// Up reports whether both the machine and the daemon are running.
func (a *Agent) Up() bool { return a.machineUp && a.daemonUp }

// Procs returns the live processes (authoritative machine state) in
// (application endpoint, worker) order.
func (a *Agent) Procs() []*Proc {
	ps := make([]*Proc, 0, len(a.procs))
	for _, p := range a.procs {
		ps = append(ps, p)
	}
	slices.SortFunc(ps, func(x, y *Proc) int { return cmp.Compare(x.key, y.key) })
	return ps
}

// Planned sums the sizes of the machine's processes, starting ones included
// (their resources are committed while the worker binary downloads): the
// table holds only processes that have not ended.
func (a *Agent) Planned() resource.Vector {
	var t resource.Vector
	for _, p := range a.procs {
		t = t.Add(p.Size)
	}
	return t
}

// Proc returns the process of worker number worker of the application master
// at endpoint app (nil when absent).
func (a *Agent) Proc(app transport.EndpointID, worker uint32) *Proc {
	return a.procs[makeProcKey(app, worker)]
}

// Capacity returns the granted container count for (app, unit).
func (a *Agent) Capacity(app string, unitID int) int {
	ep := a.net.Lookup(app)
	if ep == transport.None {
		return 0
	}
	return a.capacity.count(makeCapKey(ep, unitID))
}

// ForEachAllocation visits every (app, unit, count) of the agent's capacity
// table with a positive count, in no particular order, without allocating.
// The cluster-wide invariant checker and the chaos convergence probe compare
// it against the master's grants on this machine. A row of a retired
// application master (its release still in flight) is visited under the
// name "": the name is gone with the endpoint, and no other app's is given.
func (a *Agent) ForEachAllocation(fn func(app string, unitID, count int)) {
	for _, r := range a.capacity.rows {
		if r.count > 0 {
			fn(a.net.Name(r.key.app()), r.key.unitID(), r.count)
		}
	}
}

// appendLive appends the live rows in the wire form an anchor heartbeat
// carries, in ledger order: the one reader, a recovering master, restores
// each entry on its own.
func (t *capTable) appendLive(out []protocol.AllocDelta) []protocol.AllocDelta {
	for _, r := range t.rows {
		if r.count > 0 {
			out = append(out, protocol.AllocDelta{App: int32(r.key.app()), UnitID: r.key.unitID(), Count: r.count})
		}
	}
	return out
}

// MasterEpoch returns the highest master election epoch this agent has
// observed (0 before any epoch-stamped message arrived).
func (a *Agent) MasterEpoch() int { return a.gate.Current() }

// staleEpoch fences capacity messages from a deposed primary, resetting the
// master dedup channel when a genuinely newer epoch appears.
func (a *Agent) staleEpoch(epoch int) bool {
	return a.gate.StaleCh(epoch, &a.dedup, int32(a.masterID), protocol.ChanCap)
}

// ---------------------------------------------------------------------------
// heartbeat and enforcement
// ---------------------------------------------------------------------------

func (a *Agent) tick() {
	if !a.Up() {
		return
	}
	a.enforceOverload()
	a.sendHeartbeat()
}

// sendHeartbeat emits the next beat: an anchor (full allocation table) when
// due or forced, and a bare liveness/health beat otherwise. The master reads
// allocations only from an anchor — to rebuild its free pool after a
// promotion — so a beat between anchors carries none. The beat is drawn from
// the network's free list and filled into the payload capacity its last use
// left, so the cluster's beats share the buffers of the few in flight at once
// instead of each agent keeping its own.
func (a *Agent) sendHeartbeat() {
	hb := transport.Acquire[protocol.AgentHeartbeat](a.net)
	hb.Machine, hb.HealthScore, hb.Seq = a.id, a.HealthCollector(), a.seq.Next()
	a.sinceAnchor++
	if a.forceAnchor || a.sinceAnchor >= AnchorEvery {
		hb.Full = true
		hb.Allocations = a.capacity.appendLive(hb.Allocations)
		// Anchor time is also reaping time: zero-count rows are kept between
		// anchors so a returning grant for the same (app, unit) reuses its
		// row, but rows dead for a whole anchor period (typically unregistered
		// apps) would otherwise accumulate forever.
		a.capacity.reap()
		a.reapPlans()
		a.forceAnchor = false
		a.sinceAnchor = 0
	}
	a.net.SendID(a.epID, a.masterID, hb)
}

// sendAnchorBeat forces the next heartbeat to be a full anchor and sends it
// immediately (soft-state collection by a promoted master, restarts).
func (a *Agent) sendAnchorBeat() {
	a.forceAnchor = true
	a.sendHeartbeat()
}

// anchorRequestMin is the minimum spacing between gap-repair capacity
// queries (see requestAnchor).
const anchorRequestMin = 250 * sim.Millisecond

// requestAnchor asks the master for a full CapacitySync because a sequence
// gap showed a capacity delta to this machine was lost. Throttled: a storm
// that eats many deltas yields one query per window, and the sync that
// answers any of them re-baselines the whole ledger.
func (a *Agent) requestAnchor() {
	now := a.eng.Now()
	if now < a.nextAnchorReq {
		return
	}
	a.nextAnchorReq = now + anchorRequestMin
	a.net.SendID(a.epID, a.masterID, protocol.CapacityQuery{
		Machine: a.id, Repair: true, Seq: a.seq.Next(),
	})
}

// enforceOverload kills processes while measured physical usage (CPU,
// memory) exceeds machine capacity, choosing "the process whose real
// resource usage exceeds its own resource usage most" (paper §2.2).
// Virtual resources are scheduler-side concurrency tokens, not measurable
// machine load, so they are excluded here.
func (a *Agent) enforceOverload() {
	if len(a.procs) == 0 {
		return // nothing supervised: every tick of every idle agent comes through here
	}
	for {
		var total resource.Vector
		for _, p := range a.procs {
			if p.State == protocol.WorkerRunning {
				total = total.Add(p.Usage)
			}
		}
		if a.cap.CPUMilli() >= total.CPUMilli() && a.cap.MemoryMB() >= total.MemoryMB() {
			return
		}
		var victim *Proc
		worst := float64(-1)
		for _, p := range a.procs {
			if p.State != protocol.WorkerRunning {
				continue
			}
			over := p.Usage.Sub(p.Size).DominantShare(a.cap)
			if over > worst || (over == worst && (victim == nil || p.key < victim.key)) {
				worst = over
				victim = p
			}
		}
		if victim == nil {
			return
		}
		a.KilledForOverload++
		a.killProc(victim, "killed: machine overload")
	}
}

// ---------------------------------------------------------------------------
// message handling
// ---------------------------------------------------------------------------

func (a *Agent) handle(from transport.EndpointID, msg transport.Message) {
	if !a.Up() {
		return
	}
	switch t := msg.(type) {
	case *protocol.CapacityDelta:
		// Pooled: the network takes t and its entries back when this returns;
		// applyCapacity copies what the ledger keeps.
		if !a.wellFormed(t.Entries) || a.staleEpoch(t.Epoch) {
			return
		}
		switch a.dedup.ObserveCh(int32(from), protocol.ChanCap, t.Seq) {
		case protocol.Duplicate:
			return
		case protocol.Gap:
			// The master numbers this agent's capacity stream per agent, so
			// a gap means a delta to THIS machine was lost (a dropped or
			// partitioned-away message). The entries in hand are still
			// fresh deltas and are applied below, but the ledger is now
			// missing the lost ones — request an immediate anchor instead
			// of drifting until someone notices (the agent has no periodic
			// repair sync of its own).
			a.requestAnchor()
		}
		for _, e := range t.Entries {
			a.applyCapacity(makeCapKey(transport.EndpointID(e.App), e.UnitID), e.Count)
		}
	case protocol.CapacitySync:
		// A sync carries one machine's whole table: another machine's would
		// replace this ledger with a stranger's.
		if t.Machine != a.id || !a.wellFormed(t.Entries) || a.staleEpoch(t.Epoch) {
			return
		}
		// The sync shares the per-agent capacity sequence with the delta
		// stream: one that arrives behind the high-water mark (reordered
		// under jitter past deltas sent after it, or a duplicate) is a stale
		// snapshot, and replacing the table with it would erase the newer
		// deltas for good.
		if a.dedup.ObserveCh(int32(from), protocol.ChanCap, t.Seq) == protocol.Duplicate {
			return
		}
		a.applyCapacitySync(t)
	case protocol.WorkPlan:
		// The worker is from's, and runs in from's capacity. A unit ID wider
		// than the wire's 32 bits would read a small unit's ledger row: the
		// plan is dropped whole, before its mark.
		if int(int32(t.UnitID)) != t.UnitID || a.seenPlan(makeProcKey(from, t.Worker), t.Seq) {
			return
		}
		a.startWorker(from, t)
	case protocol.StopWorker:
		a.stopWorker(makeProcKey(from, t.Worker))
	case protocol.MasterHello:
		// New primary collecting soft state: report the full table
		// immediately (an anchor beat — the successor rebuilds its free
		// pool from it, so a bare beat would not do). The epoch gate
		// forgets the dead master's sequence numbers only for a genuinely
		// newer epoch — a duplicated hello must not reopen the door to
		// replaying the new master's own messages.
		if a.staleEpoch(t.Epoch) {
			return
		}
		a.sendAnchorBeat()
	case protocol.WorkerListReply:
		a.adoptWorkers(from, t)
	}
}

// wellFormed reports whether every entry of a capacity message names an
// endpoint the network handed out and a unit ID the wire's 32 bits hold —
// the two things the ledger's packed key trusts. A message that fails is
// dropped whole, before it reaches the epoch gate, the sequence marks or the
// ledger. An endpoint handed out and since retired passes: the master's
// release of a finished application's capacity can land after the
// application's endpoint was retired, and dropping it would strand that
// capacity on this machine for good.
func (a *Agent) wellFormed(es []protocol.CapacityEntry) bool {
	for _, e := range es {
		if !a.net.Known(transport.EndpointID(e.App)) || int(int32(e.UnitID)) != e.UnitID {
			return false
		}
	}
	return true
}

// applyCapacity applies one signed capacity change to the ledger.
func (a *Agent) applyCapacity(k capKey, delta int) {
	n := &a.capacity.rows[a.capacity.slot(k)].count
	*n += delta
	if *n < 0 {
		*n = 0
		a.ClampedNegative++
	}
	a.ensureCapacity(k, *n)
}

// ensureCapacity kills excess processes when granted capacity shrank below
// the number of running workers and the application master did not stop one
// itself (paper §2.2 "resource capacity ensurance").
func (a *Agent) ensureCapacity(k capKey, count int) {
	if len(a.procs) == 0 {
		return // nothing supervised (the common state at control-plane scale)
	}
	var owned []*Proc
	for _, p := range a.procs {
		if p.key.app() == k.app() && p.UnitID == k.unitID() {
			owned = append(owned, p)
		}
	}
	for len(owned) > count {
		// Kill deterministically: highest worker number (most recent) first.
		idx := 0
		for i := 1; i < len(owned); i++ {
			if owned[i].key > owned[idx].key {
				idx = i
			}
		}
		victim := owned[idx]
		owned = append(owned[:idx], owned[idx+1:]...)
		a.KilledForCapacity++
		a.killProc(victim, "killed: capacity revoked")
	}
}

// seenPlan reports whether worker k's plan numbered seq, or a later one, was
// seen before, and marks seq seen otherwise.
func (a *Agent) seenPlan(k procKey, seq uint64) bool {
	if seq <= a.planSeen[k] {
		return true
	}
	if a.planSeen == nil {
		a.planSeen = make(map[procKey]uint64)
	}
	a.planSeen[k] = seq
	return false
}

// reapPlans drops, at an anchor, the plan marks of applications whose
// endpoint was retired: a finished application plans nothing more, and a
// delayed plan from its retired endpoint is dropped on landing by the
// network's generation fence, so no mark is needed to refuse it. Marks of
// live applications stay, finished workers' included, so a duplicate plan
// cannot restart one.
func (a *Agent) reapPlans() {
	for k := range a.planSeen {
		if a.net.Name(k.app()) == "" {
			delete(a.planSeen, k)
		}
	}
}

// report sends a worker's status to its application master.
func (a *Agent) report(k procKey, state protocol.WorkerState, detail string) {
	a.net.SendID(a.epID, k.app(), protocol.WorkerStatus{
		Machine: a.id, Worker: k.worker(), State: state, FailureDetail: detail, Seq: a.seq.Next(),
	})
}

// SetBroken simulates the PartialWorkerFailure fault of the paper's §5.4:
// "Disk I/O hang or unstable network connection ... we can then simulate it
// by making disk corrupted. The processes thus can not be launched."
func (a *Agent) SetBroken(broken bool) { a.broken = broken }

func (a *Agent) startWorker(from transport.EndpointID, t protocol.WorkPlan) {
	k := makeProcKey(from, t.Worker)
	if _, dup := a.procs[k]; dup {
		return
	}
	if a.broken {
		a.report(k, protocol.WorkerFailed, "disk corrupted: process cannot be launched")
		return
	}
	running := 0
	for _, p := range a.procs {
		if p.key.app() == from && p.UnitID == t.UnitID {
			running++
		}
	}
	if running >= a.capacity.count(makeCapKey(from, t.UnitID)) {
		// No granted capacity: refuse (isolation rule one).
		a.report(k, protocol.WorkerFailed, fmt.Sprintf("no capacity for unit %d on %s", t.UnitID, a.Machine))
		return
	}
	p := &Proc{key: k, UnitID: t.UnitID, Size: t.Size, Usage: t.Size, State: protocol.WorkerStarting}
	a.procs[k] = p
	p.startTimer = a.eng.After(a.cfg.WorkerStartDelay, func() {
		if a.procs[k] != p || !a.machineUp {
			return
		}
		p.State = protocol.WorkerRunning
		// First status report: the AM measures worker-start overhead from
		// plan to this message (Table 2).
		a.report(k, protocol.WorkerRunning, "")
	})
}

func (a *Agent) stopWorker(k procKey) {
	p := a.procs[k]
	if p == nil {
		return
	}
	if p.startTimer != nil {
		p.startTimer()
	}
	delete(a.procs, k)
	p.State = protocol.WorkerFinished
	a.report(k, protocol.WorkerFinished, "")
}

// killProc force-terminates a process and notifies its application master.
func (a *Agent) killProc(p *Proc, detail string) {
	if p.startTimer != nil {
		p.startTimer()
	}
	delete(a.procs, p.key)
	p.State = protocol.WorkerFailed
	if a.Up() {
		a.report(p.key, protocol.WorkerFailed, detail)
	}
}

// CrashWorker simulates a worker process crash (fault injection). Per paper
// §2.2, "FuxiAgent watches the worker's status and restarts it if it
// crashes" — the agent restarts the process after the start delay and the
// application master is told about the failure.
func (a *Agent) CrashWorker(p *Proc, detail string) {
	if p == nil || a.procs[p.key] != p {
		return
	}
	a.killProc(p, detail)
	if !a.Up() {
		return
	}
	// Auto-restart inside the still-granted container.
	a.startWorker(p.key.app(), protocol.WorkPlan{
		UnitID: p.UnitID, Worker: p.key.worker(), Size: p.Size, Seq: a.seq.Next(),
	})
}

// ---------------------------------------------------------------------------
// failure and failover
// ---------------------------------------------------------------------------

// CrashDaemon stops the FuxiAgent daemon only: worker processes keep
// running; heartbeats and process management stop.
func (a *Agent) CrashDaemon() {
	if !a.daemonUp {
		return
	}
	a.daemonUp = false
	for _, c := range a.timers {
		c()
	}
	a.timers = nil
	a.net.Unregister(a.endpoint())
	// In-memory daemon state is lost.
	a.capacity.reset()
	a.dedup, a.planSeen = protocol.Dedup{}, nil
}

// RestartDaemon brings the daemon back: it adopts the running processes it
// finds ("existing running tasks will be adopted rather than being killed"),
// asks FuxiMaster for the granted capacity table, and asks each application
// for its expected worker list.
func (a *Agent) RestartDaemon() {
	if a.daemonUp || !a.machineUp {
		return
	}
	a.daemonUp = true
	a.forceAnchor = true
	a.net.Register(a.endpoint(), a.handle)
	a.timers = append(a.timers, a.eng.Every(heartbeatInterval, a.tick))

	a.net.SendID(a.epID, a.masterID, protocol.CapacityQuery{
		Machine: a.id, Seq: a.seq.Next(),
	})
	// Each application is asked once, in endpoint order, at the endpoint its
	// processes were planned from: a finished one's is retired, and the
	// request is dropped.
	last := transport.None
	for _, p := range a.Procs() {
		if app := p.key.app(); app != last {
			a.net.SendID(a.epID, app, protocol.WorkerListRequest{Machine: a.id, Seq: a.seq.Next()})
			last = app
		}
	}
}

func (a *Agent) applyCapacitySync(t protocol.CapacitySync) {
	// The whole table is replaced (in its own storage): the next beat
	// re-anchors rather than enumerating every entry as a change.
	a.forceAnchor = true
	a.capacity.reset()
	for _, e := range t.Entries {
		if e.Count > 0 {
			a.capacity.rows[a.capacity.slot(makeCapKey(transport.EndpointID(e.App), e.UnitID))].count = e.Count
		}
	}
	if len(a.procs) == 0 {
		return // nothing supervised (the control-plane lanes): nothing to enforce
	}
	// Enforce in the sync's own order — the master sends its table in
	// (application name, unit) order — so the enforcement kills and their
	// failure reports are seed-reproducible.
	for _, r := range a.capacity.rows {
		a.ensureCapacity(r.key, r.count)
	}
	// Processes whose capacity vanished entirely while the daemon was down,
	// in (application endpoint, worker) order:
	for _, p := range a.Procs() {
		if a.capacity.count(makeCapKey(p.key.app(), p.UnitID)) == 0 {
			a.KilledForCapacity++
			a.killProc(p, "killed: capacity revoked during daemon outage")
		}
	}
}

// adoptWorkers reconciles the replying application's processes against the
// worker list it sent: its processes the list does not name are killed, and
// the listed workers it has no process for are reported failed, so it can
// reschedule. Other applications' processes are not its to list.
func (a *Agent) adoptWorkers(from transport.EndpointID, t protocol.WorkerListReply) {
	expect := make([]uint32, 0, len(t.Workers))
	for _, w := range t.Workers {
		expect = append(expect, w.Worker)
	}
	slices.Sort(expect)
	expect = slices.Compact(expect)
	for _, p := range a.Procs() {
		if p.key.app() != from {
			continue
		}
		if i, ok := slices.BinarySearch(expect, p.key.worker()); ok {
			expect = slices.Delete(expect, i, i+1)
		} else {
			a.killProc(p, "killed: not in application worker list")
		}
	}
	for _, w := range expect {
		a.report(makeProcKey(from, w), protocol.WorkerFailed, "lost during agent outage")
	}
}

// CrashMachine halts the whole node: all processes die silently (no
// failure reports escape a dead machine) and the endpoint goes dark so the
// master's heartbeat timeout fires.
func (a *Agent) CrashMachine() {
	if !a.machineUp {
		return
	}
	a.machineUp = false
	for _, c := range a.timers {
		c()
	}
	a.timers = nil
	for id, p := range a.procs {
		if p.startTimer != nil {
			p.startTimer()
		}
		p.State = protocol.WorkerFailed
		delete(a.procs, id)
	}
	a.capacity.reset()
	a.net.SetDown(a.endpoint(), true)
}

// RestartMachine boots the node fresh: empty process table, daemon up,
// heartbeats resume (and the master's first one back calls
// Scheduler.MachineUp on it).
func (a *Agent) RestartMachine() {
	if a.machineUp {
		return
	}
	a.machineUp = true
	a.daemonUp = true
	a.forceAnchor = true
	a.dedup, a.planSeen = protocol.Dedup{}, nil
	a.net.SetDown(a.endpoint(), false)
	a.net.Register(a.endpoint(), a.handle)
	a.timers = append(a.timers, a.eng.Every(heartbeatInterval, a.tick))
}
