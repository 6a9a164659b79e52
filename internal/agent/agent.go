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
// capacity-delta decode nor the beat resolves a name. Names appear at the
// boundaries: the public accessors and the worker and application names of
// the worker-management messages.
package agent

import (
	"fmt"
	"math/bits"
	"sort"

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
	// AnchorEvery is the full-sync anchor period of the delta-encoded
	// heartbeat stream: every AnchorEvery-th beat carries the complete
	// allocation table (Full), the beats between carry only changed
	// entries (or nothing).
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

// capTable is the machine's capacity ledger: the packed keys in one
// contiguous array, each key's granted container count at the same index
// beside it, in arrival order, and one bit per row marking a count that
// changed since the last heartbeat. A row is the count alone — enforcement
// and the heartbeat read nothing else — so the table holds no pointers and
// the collector never scans it. A machine holds a few dozen (app, unit) rows,
// so finding one is a scan of a handful of cache lines of integers, and the
// delta beat's "what changed" is a word of bits next to the rows the deltas
// just wrote rather than a second table to insert into, iterate and look up
// again. Zero-count rows stay until the next anchor so a returning grant
// reuses its row.
type capTable struct {
	keys   []capKey
	counts []int
	dirty  []uint64 // bit i: counts[i] changed since the last beat
	nDirty int
}

// find returns k's index, or -1.
func (t *capTable) find(k capKey) int {
	for i, have := range t.keys {
		if have == k {
			return i
		}
	}
	return -1
}

// slot returns k's index, appending an empty row when k is new.
func (t *capTable) slot(k capKey) int {
	i := t.find(k)
	if i < 0 {
		i = len(t.keys)
		if i == cap(t.keys) {
			// Both arrays grow together, from a size most machines never
			// outgrow twice.
			n := max(16, 2*i)
			t.keys = append(make([]capKey, 0, n), t.keys...)
			t.counts = append(make([]int, 0, n), t.counts...)
		}
		t.keys = append(t.keys, k)
		t.counts = append(t.counts, 0)
		if i>>6 >= len(t.dirty) {
			t.dirty = append(t.dirty, 0)
		}
	}
	return i
}

// count returns k's granted container count (0 when absent).
func (t *capTable) count(k capKey) int {
	if i := t.find(k); i >= 0 {
		return t.counts[i]
	}
	return 0
}

// mark flags row i as changed since the last beat.
func (t *capTable) mark(i int) {
	if bit := uint64(1) << (i & 63); t.dirty[i>>6]&bit == 0 {
		t.dirty[i>>6] |= bit
		t.nDirty++
	}
}

// clean clears every changed mark.
func (t *capTable) clean() {
	clear(t.dirty)
	t.nDirty = 0
}

// reap drops the zero-count rows, keeping the others in order. Rows move, so
// the changed marks are cleared with them: reaping is part of an anchor, and
// an anchor supersedes every pending change.
func (t *capTable) reap() {
	w := 0
	for i, n := range t.counts {
		if n > 0 {
			t.keys[w], t.counts[w] = t.keys[i], n
			w++
		}
	}
	t.keys, t.counts = t.keys[:w], t.counts[:w]
	t.clean()
}

// reset empties the table, keeping its storage.
func (t *capTable) reset() {
	t.keys, t.counts = t.keys[:0], t.counts[:0]
	t.clean()
}

// Proc is one supervised worker process.
type Proc struct {
	App string
	// ep is the application master's endpoint ID the capacity was granted to:
	// enforcement matches rows by it and status reports go to it, so a
	// finished application's name is never looked up again.
	ep     transport.EndpointID
	UnitID int
	ID     string
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
	procs map[string]*Proc

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

	// Delta-heartbeat state (the changed-since-last-beat marks live in the
	// capacity rows): sinceAnchor counts beats since the last full-table
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
		procs:     make(map[string]*Proc),
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

// Procs returns the live process table (authoritative machine state).
func (a *Agent) Procs() map[string]*Proc { return a.procs }

// Proc returns one process by worker ID (nil when absent).
func (a *Agent) Proc(workerID string) *Proc { return a.procs[workerID] }

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
	t := &a.capacity
	for i, k := range t.keys {
		if n := t.counts[i]; n > 0 {
			fn(a.net.Name(k.app()), k.unitID(), n)
		}
	}
}

// emit appends row i in heartbeat form.
func (t *capTable) emit(out []protocol.AllocDelta, i int) []protocol.AllocDelta {
	k := t.keys[i]
	return append(out, protocol.AllocDelta{App: int32(k.app()), UnitID: k.unitID(), Count: t.counts[i]})
}

// appendLive appends the live rows in the wire form an anchor heartbeat
// carries, in ledger order: the one reader, a recovering master, restores
// each entry on its own.
func (t *capTable) appendLive(out []protocol.AllocDelta) []protocol.AllocDelta {
	for i, n := range t.counts {
		if n > 0 {
			out = t.emit(out, i)
		}
	}
	return out
}

// appendChanged is appendLive for a delta beat: the rows whose count changed
// since the last beat, zero counts (removals) included.
func (t *capTable) appendChanged(out []protocol.AllocDelta) []protocol.AllocDelta {
	for w, word := range t.dirty {
		for ; word != 0; word &= word - 1 {
			out = t.emit(out, w<<6+bits.TrailingZeros64(word))
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

// sendHeartbeat emits the next beat of the delta-encoded stream: an anchor
// (full allocation table) when due or forced, a change list when capacity
// moved since the last beat, and a bare liveness/health beat otherwise —
// the common case at steady state, which builds no maps at all. The beat is
// drawn from the network's free list and filled into the payload capacity
// its last use left, so the cluster's beats share the buffers of the few in
// flight at once instead of each agent keeping its own.
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
		a.forceAnchor = false
		a.sinceAnchor = 0
	} else if a.capacity.nDirty > 0 {
		hb.Changes = a.capacity.appendChanged(hb.Changes)
		a.capacity.clean()
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
			if over > worst || (over == worst && (victim == nil || p.ID < victim.ID)) {
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
		// from is a live endpoint (the network fences retired ones), so its
		// name is the sender's own.
		if a.dedup.Observe(a.net.Name(from)+"/plan/"+t.WorkerID, t.Seq) == protocol.Duplicate {
			return
		}
		a.startWorker(from, t)
	case protocol.StopWorker:
		a.stopWorker(t)
	case protocol.MasterHello:
		// New primary collecting soft state: report the full table
		// immediately (an anchor beat — the successor rebuilds its free
		// pool from it, so a delta beat would not do). The epoch gate
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

// applyCapacity applies one signed capacity change to the ledger and marks
// the row for the next delta beat.
func (a *Agent) applyCapacity(k capKey, delta int) {
	i := a.capacity.slot(k)
	a.capacity.mark(i)
	n := &a.capacity.counts[i]
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
		if p.ep == k.app() && p.UnitID == k.unitID() {
			owned = append(owned, p)
		}
	}
	for len(owned) > count {
		// Kill deterministically: highest worker ID (most recent) first.
		idx := 0
		for i := 1; i < len(owned); i++ {
			if owned[i].ID > owned[idx].ID {
				idx = i
			}
		}
		victim := owned[idx]
		owned = append(owned[:idx], owned[idx+1:]...)
		a.KilledForCapacity++
		a.killProc(victim, "killed: capacity revoked")
	}
}

// SetBroken simulates the PartialWorkerFailure fault of the paper's §5.4:
// "Disk I/O hang or unstable network connection ... we can then simulate it
// by making disk corrupted. The processes thus can not be launched."
func (a *Agent) SetBroken(broken bool) { a.broken = broken }

func (a *Agent) startWorker(from transport.EndpointID, t protocol.WorkPlan) {
	if _, dup := a.procs[t.WorkerID]; dup {
		return
	}
	if a.broken {
		a.net.SendID(a.epID, from, protocol.WorkerStatus{
			Machine: a.id, App: t.App, WorkerID: t.WorkerID,
			State:         protocol.WorkerFailed,
			FailureDetail: "disk corrupted: process cannot be launched",
			Seq:           a.seq.Next(),
		})
		return
	}
	capCount := a.Capacity(t.App, t.UnitID)
	running := 0
	for _, p := range a.procs {
		if p.App == t.App && p.UnitID == t.UnitID {
			running++
		}
	}
	if running >= capCount {
		// No granted capacity: refuse (isolation rule one).
		a.net.SendID(a.epID, from, protocol.WorkerStatus{
			Machine: a.id, App: t.App, WorkerID: t.WorkerID,
			State:         protocol.WorkerFailed,
			FailureDetail: fmt.Sprintf("no capacity for app %s unit %d on %s", t.App, t.UnitID, a.Machine),
			Seq:           a.seq.Next(),
		})
		return
	}
	p := &Proc{App: t.App, ep: a.net.Lookup(t.App), UnitID: t.UnitID, ID: t.WorkerID, Size: t.Size, Usage: t.Size, State: protocol.WorkerStarting}
	a.procs[t.WorkerID] = p
	p.startTimer = a.eng.After(a.cfg.WorkerStartDelay, func() {
		if a.procs[t.WorkerID] != p || !a.machineUp {
			return
		}
		p.State = protocol.WorkerRunning
		// First status report: the AM measures worker-start overhead from
		// plan to this message (Table 2).
		a.net.SendID(a.epID, p.ep, protocol.WorkerStatus{
			Machine: a.id, App: p.App, WorkerID: p.ID,
			State: protocol.WorkerRunning, Seq: a.seq.Next(),
		})
	})
}

func (a *Agent) stopWorker(t protocol.StopWorker) {
	p := a.procs[t.WorkerID]
	if p == nil || p.App != t.App {
		return
	}
	if p.startTimer != nil {
		p.startTimer()
	}
	delete(a.procs, t.WorkerID)
	p.State = protocol.WorkerFinished
	a.net.SendID(a.epID, p.ep, protocol.WorkerStatus{
		Machine: a.id, App: p.App, WorkerID: p.ID,
		State: protocol.WorkerFinished, Seq: a.seq.Next(),
	})
}

// killProc force-terminates a process and notifies its application master.
func (a *Agent) killProc(p *Proc, detail string) {
	if p.startTimer != nil {
		p.startTimer()
	}
	delete(a.procs, p.ID)
	p.State = protocol.WorkerFailed
	if a.Up() {
		a.net.SendID(a.epID, p.ep, protocol.WorkerStatus{
			Machine: a.id, App: p.App, WorkerID: p.ID,
			State: protocol.WorkerFailed, FailureDetail: detail, Seq: a.seq.Next(),
		})
	}
}

// CrashWorker simulates a worker process crash (fault injection). Per paper
// §2.2, "FuxiAgent watches the worker's status and restarts it if it
// crashes" — the agent restarts the process after the start delay and the
// application master is told about the failure.
func (a *Agent) CrashWorker(workerID, detail string) {
	p := a.procs[workerID]
	if p == nil {
		return
	}
	a.killProc(p, detail)
	if !a.Up() {
		return
	}
	// Auto-restart inside the still-granted container.
	a.startWorker(p.ep, protocol.WorkPlan{
		App: p.App, UnitID: p.UnitID, WorkerID: p.ID, Size: p.Size, Seq: a.seq.Next(),
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
	a.dedup = protocol.Dedup{}
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
	// Each application is asked at the endpoint its processes were planned
	// from: a finished one's is retired, and the request is dropped.
	apps := map[string]transport.EndpointID{}
	for _, p := range a.procs {
		apps[p.App] = p.ep
	}
	names := make([]string, 0, len(apps))
	for app := range apps {
		names = append(names, app)
	}
	sort.Strings(names)
	for _, app := range names {
		a.net.SendID(a.epID, apps[app], protocol.WorkerListRequest{Machine: a.id, Seq: a.seq.Next()})
	}
}

func (a *Agent) applyCapacitySync(t protocol.CapacitySync) {
	// The whole table is replaced (in its own storage): the next beat
	// re-anchors rather than enumerating every entry as a change.
	a.forceAnchor = true
	a.capacity.reset()
	for _, e := range t.Entries {
		if e.Count > 0 {
			a.capacity.counts[a.capacity.slot(makeCapKey(transport.EndpointID(e.App), e.UnitID))] = e.Count
		}
	}
	if len(a.procs) == 0 {
		return // nothing supervised (the control-plane lanes): nothing to enforce
	}
	// Enforce in the sync's own order — the master sends its table in
	// (application name, unit) order — so the enforcement kills and their
	// failure reports are seed-reproducible.
	for i, k := range a.capacity.keys {
		a.ensureCapacity(k, a.capacity.counts[i])
	}
	// Processes whose capacity vanished entirely while the daemon was down:
	var orphans []*Proc
	for _, p := range a.procs {
		if a.Capacity(p.App, p.UnitID) == 0 {
			orphans = append(orphans, p)
		}
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].ID < orphans[j].ID })
	for _, p := range orphans {
		a.KilledForCapacity++
		a.killProc(p, "killed: capacity revoked during daemon outage")
	}
}

// adoptWorkers reconciles the process table against the application's
// expected worker list: unknown processes are killed, expected-but-missing
// workers are reported failed, to the application that replied, so it can
// reschedule.
func (a *Agent) adoptWorkers(from transport.EndpointID, t protocol.WorkerListReply) {
	expect := map[string]protocol.WorkPlan{}
	for _, w := range t.Workers {
		expect[w.WorkerID] = w
	}
	ids := make([]string, 0, len(a.procs))
	for id, p := range a.procs {
		if p.App == t.App {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		if _, ok := expect[id]; !ok {
			a.killProc(a.procs[id], "killed: not in application worker list")
		}
		delete(expect, id)
	}
	missing := make([]string, 0, len(expect))
	for id := range expect {
		missing = append(missing, id)
	}
	sort.Strings(missing)
	for _, id := range missing {
		a.net.SendID(a.epID, from, protocol.WorkerStatus{
			Machine: a.id, App: t.App, WorkerID: id,
			State:         protocol.WorkerFailed,
			FailureDetail: "lost during agent outage",
			Seq:           a.seq.Next(),
		})
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
	a.dedup = protocol.Dedup{}
	a.net.SetDown(a.endpoint(), false)
	a.net.Register(a.endpoint(), a.handle)
	a.timers = append(a.timers, a.eng.Every(heartbeatInterval, a.tick))
}
