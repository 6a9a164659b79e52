package master

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"repro/internal/lockservice"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Config tunes one FuxiMaster process. The failure thresholds and periods
// every process shares are the constants below it.
type Config struct {
	// ProcessName uniquely names this master process (e.g. "fm-1"); the
	// hot-standby pair shares the election lock and the logical
	// MasterEndpoint.
	ProcessName string
	// LockReachable, when set, reports whether this process can currently
	// reach the lock service — the hook a partition harness uses to model a
	// master cut off from coordination. While unreachable the process cannot
	// renew (or compete for) the lease; a primary that stays unreachable
	// past its lease deadline self-demotes, because the server side has
	// expired the lease and promoted the standby. Without the self-demotion
	// a partitioned primary that still reaches the agents keeps acting as
	// master alongside its successor (split brain). Nil means always
	// reachable.
	LockReachable func() bool
	// BatchWindow is the width of a scheduling round. Every DemandUpdate —
	// its returns and its demand — joins the round, and a round applies all
	// its releases first, reassigns the freed machines to queued demand in
	// one sweep, places the demand, and fans its decisions out as one batch.
	// A positive window coalesces the updates that arrive inside it and
	// places their demand merged per application and unit (the paper's
	// batch-mode handling of "frequently changing resource requests from one
	// application"). Zero flushes every update at once as a round of its
	// own, its demand placed as the app asked for it.
	BatchWindow sim.Time
	// Sched passes through scheduler options (quota groups, preemption).
	Sched Options
	// OnRecovered fires when a promoted primary finishes soft-state
	// recovery and resumes normal scheduling (failover promotions only;
	// the epoch-1 fresh boot has no recovery phase). reissuedGrants is the
	// number of containers granted by the post-recovery assignment pass —
	// demand that was queued or re-sent during the interregnum.
	OnRecovered func(epoch int, reissuedGrants int)
	// Obs, when set, turns on the observability plane: the primary records
	// one sample row into this store at the end of every scheduling round it
	// flushes (a zero-width round is one update) and answers
	// obs.QueryRequest messages over the transport. Both hot-standby
	// processes may share one store; series registration is idempotent
	// across promotions.
	Obs *obs.Store
	// ObsSampler, when set alongside Obs, fires after each master sample
	// row is recorded, letting the embedding harness add its own series
	// (per-link loss counters, gateway shed, workload rates) to the same
	// row. It runs on the simulation goroutine.
	ObsSampler func(now sim.Time)
}

// Election and lease (paper §4.3.1's hot-standby pair).
const (
	// lockName is the election lock.
	lockName = "fuximaster-lock"
	// LockTTL is the lease duration; renewEvery the renewal period.
	LockTTL    = 3 * sim.Second
	renewEvery = sim.Second
)

// Failure detection and recovery (paper §4.3).
const (
	// heartbeatTimeout declares an agent dead when silent this long.
	heartbeatTimeout = 3 * sim.Second
	// heartbeatScan is the period of the dead-agent scan (the paper's
	// "heavy but not emergent requests ... captured at a fixed time
	// interval ... in a roll-up manner").
	heartbeatScan = sim.Second
	// RecoveryWindow bounds how long a newly-promoted primary collects soft
	// state before resuming normal scheduling. Recovery ends as soon as
	// every machine has sent its anchor beat and every checkpointed
	// application its full sync (or its unregister) — one round trip after
	// the hello when everyone is alive — and at this deadline when some
	// party stays silent.
	RecoveryWindow = 2 * sim.Second
)

// The cluster-level half of the multi-level blacklist (paper §3.4 and
// §4.3.2; the job-level half lives in internal/blacklist).
const (
	// healthScoreThreshold and healthScoreStrikes drive score-based
	// graylisting: an agent reporting below the threshold for this many
	// consecutive heartbeats is blacklisted ("once the score is too low
	// for a long time").
	healthScoreThreshold = 30
	healthScoreStrikes   = 3
	// badReportThreshold is how many distinct applications must report a
	// machine bad before FuxiMaster disables it cluster-wide.
	badReportThreshold = 2
	// flapPenalty, flapThreshold, flapDecayEvery and flapDecayStep drive
	// the flap score: every master-observed machine death — a
	// heartbeat-timeout declaration or an agent restart announcing itself
	// with a CapacityQuery — adds flapPenalty to the machine's flap score,
	// and at flapThreshold the machine is blacklisted so the scheduler's
	// sweep skips it. The score decays by flapDecayStep every
	// flapDecayEvery; once it falls back below the threshold (and no other
	// signal pins the machine) it is rehabilitated — distinguishing a
	// persistently flapping node from a one-off crash. Four deaths inside
	// the decay window blacklist a machine.
	flapPenalty    = 2
	flapThreshold  = 8
	flapDecayEvery = 30 * sim.Second
	flapDecayStep  = 1
	// blacklistCap bounds the cluster blacklist ("to avoid abuse ... an
	// upper bound limit can be configured").
	blacklistCap = 50
)

// Blacklist pins are the signals that keep a listed machine on the cluster
// blacklist through a healthy heartbeat. A machine with no pin was listed by
// its health score alone, and its first healthy heartbeat clears it. The
// pins are hard state with the list itself: the checkpoint records each
// listed machine's pins, and a promoted successor restores them.
const (
	// pinVotes: badReportThreshold applications reported the machine. Votes
	// never expire, so neither does the pin; it is set at the threshold even
	// when the blacklist cap keeps the machine off the list.
	pinVotes uint8 = 1 << iota
	// pinFlap: the flap score reached flapThreshold while the machine was
	// listed; only the decay path (decayFlapScores) clears it.
	pinFlap
)

// Master is one FuxiMaster process of the hot-standby pair. When it holds
// the election lock it registers the logical MasterEndpoint, drives the
// Scheduler, and dispatches grant/revoke messages; otherwise it waits.
//
// All per-machine wrapper state — heartbeat clocks, strike and flap
// counters, blacklist pins, cached agent endpoints — is held in slices
// indexed by the dense machine ID carried on the wire, so the per-message
// hot path never hashes a machine name.
type Master struct {
	cfg  Config
	eng  *sim.Engine
	net  *transport.Net
	lock *lockservice.Service
	top  *topology.Topology
	ckpt *CheckpointStore
	// schedPasses counts the scheduling rounds this process flushed — one
	// update each when BatchWindow is zero — and schedNS and schedMaxNS their
	// total and largest wall time (paper Figure 9; see SchedStats).
	schedPasses         int
	schedNS, schedMaxNS int64

	sched      *Scheduler
	primary    bool
	crashed    bool
	recovering bool
	restored   []bool // by machine ID: allocations restored this recovery
	// owedAnchors and owedSyncs count, during a recovery, the machines whose
	// anchor beat and the checkpointed apps (appState.owesSync) whose full
	// sync or unregister has not arrived yet; at zero the soft state is in.
	owedAnchors, owedSyncs int
	epoch                  int

	epID    tr // cached endpoint IDs: own, gateway, per-machine agents
	gwID    tr
	agentEP []tr // by machine ID
	// byEP resolves the sender of an application-master message — and the
	// app of a heartbeat allocation entry — to its scheduler state by
	// transport endpoint slot: a slice index per message where there used to
	// be a hash of the app's name. nil for slots that are not (or no longer)
	// registered apps' endpoints; filled with the scheduler at every promotion
	// and cleared with it when the term ends (standDown). A finished
	// application master's slot goes to a later endpoint, so the table is as
	// long as the endpoints open at once.
	byEP []*appState

	seq   protocol.Sequencer
	dedup protocol.Dedup
	// capSeq numbers each agent's CapacityDelta/CapacitySync stream and
	// appState.grantSeq each app's GrantUpdate stream (per receiver, not the
	// shared m.seq): a receiver-side sequence gap then genuinely means a
	// lost message, which is what lets agents request an immediate anchor
	// instead of waiting for the periodic sync.
	capSeq []protocol.Sequencer // by machine ID
	// leaseDeadline is when the lease last acquired/renewed by this process
	// expires server-side; fenceArmed tracks the pending self-demotion check
	// armed while the lock service is unreachable.
	leaseDeadline sim.Time
	fenceArmed    bool
	lastBeat      []sim.Time // by machine ID
	strikes       []int      // by machine ID
	// flap is the cluster-level machine health score (see flapPenalty):
	// master-observed deaths raise it and the decay timer lowers it. It is
	// soft state, like strikes and badVotes: a promoted successor starts
	// them fresh, and restores only the pins (pinVotes, pinFlap) the
	// checkpoint recorded for each listed machine.
	flap     []int
	pins     []uint8           // by machine ID
	badVotes []map[string]bool // machine ID -> set of reporting apps
	// pendDem and pendRet buffer one scheduling round's demand and returns in
	// arrival order, each with its sender so the flush resolves the app by
	// index; round stamps the apps a batched flush has seen. A recovery holds
	// the round until finishRecovery, and a demoted process keeps it for the
	// recovery of its re-promotion.
	pendDem []demandRec
	pendRet []returnRec
	// pendHints owns the hint lists of the buffered round's demand updates: a
	// DemandUpdate's payload goes back to the network when its handler
	// returns, so what the round keeps it copies, into one arena emptied with
	// the round. (A slice carved before the arena grew keeps the array it was
	// carved from; nothing is moved under it.)
	pendHints []protocol.UnitHint
	round     uint32
	flushArm  bool
	dsp       dispatchScratch // pooled fan-out accumulators
	touched   []int32         // pooled touched-machine list (release batches)
	// Pooled round-merge buffers (placeApp): the units an app's round places
	// (unitBuf), each unit's row in it by unitState.idx (unitSlot, -1 outside
	// placeApp), and the hints as the scheduler takes them (hintBuf).
	appBuf   []*appState
	unitBuf  []roundUnit
	unitSlot []int32
	hintBuf  []resource.LocalityHint
	// Full-sync reconciliation scratch (one sync touches every unit of an
	// app; pooled so the periodic safety syncs do not allocate per unit).
	idxBuf []treeIdx
	// dsBuf is the pooled decision accumulator of the round and unregister
	// scheduling paths (see decisions).
	dsBuf []Decision
	// recUnreg buffers the unregisters that arrive during the recovery
	// window: releasing an app's grants before every agent has re-reported
	// its allocations would release only those restored so far, and strand
	// the capacity on agents whose restore report had not landed yet.
	recUnreg  []unregRec
	timers    []sim.Cancel
	lockAbort sim.Cancel
	// obs holds the pre-resolved series handles of the observability plane
	// (obssample.go); inert unless cfg.Obs is set.
	obs obsRec
}

// tr abbreviates the transport endpoint ID in struct fields.
type tr = transport.EndpointID

// demandRec is a buffered DemandUpdate's demand — upd carries no returns —
// and returnRec one of its returns, each with the app and the endpoint it
// arrived from. next chains one app's updates inside a round flush (-1 ends
// the chain).
type demandRec struct {
	upd  protocol.DemandUpdate
	from tr
	next int32
}

type returnRec struct {
	ret  protocol.ReturnEntry
	app  string
	from tr
}

// roundUnit is one unit a batched round places for an app: its merged hints
// are hintBuf[off:off+n].
type roundUnit struct {
	u      *unitState
	off, n int32
}

// unregRec is an UnregisterApp buffered through the recovery window: the
// application and the endpoint to acknowledge.
type unregRec struct {
	app  string
	from tr
}

// NewMaster wires a master process to the simulation. Both hot-standby
// processes share the same CheckpointStore (it models durable storage) and
// lock service. The master starts in standby and competes for the lock
// immediately.
func NewMaster(cfg Config, eng *sim.Engine, net *transport.Net, lock *lockservice.Service,
	top *topology.Topology, ckpt *CheckpointStore) *Master {
	n := top.Size()
	m := &Master{
		cfg: cfg, eng: eng, net: net, lock: lock, top: top, ckpt: ckpt,
		lastBeat: make([]sim.Time, n),
		strikes:  make([]int, n),
		flap:     make([]int, n),
		pins:     make([]uint8, n),
		badVotes: make([]map[string]bool, n),
		agentEP:  make([]tr, n),
		epID:     net.Endpoint(protocol.MasterEndpoint),
		gwID:     net.Endpoint(protocol.GatewayEndpoint),
	}
	for id := int32(0); id < int32(n); id++ {
		m.agentEP[id] = net.Endpoint(protocol.AgentEndpoint(top.MachineName(id)))
	}
	m.compete()
	return m
}

// schedTook records one scheduling round that began at start.
func (m *Master) schedTook(start time.Time) {
	ns := time.Since(start).Nanoseconds()
	m.schedPasses++
	m.schedNS += ns
	m.schedMaxNS = max(m.schedMaxNS, ns)
}

// SchedStats returns the scheduling rounds this process has flushed — one
// per demand update when BatchWindow is zero — and their total and largest
// wall time in nanoseconds: the paper's Figure 9 (scheduling time per
// request), and how many scheduler invocations batching saved.
func (m *Master) SchedStats() (passes int, totalNS, maxNS int64) {
	return m.schedPasses, m.schedNS, m.schedMaxNS
}

// registerApp registers an application with the scheduler and binds it to
// its transport endpoint — the endpoint named after the app, which is where
// the application-master framework listens (grants and the unregister ack go
// there) and what identifies the app in capacity and heartbeat messages: the
// sender, from, as handle takes a registration from no other endpoint. A
// promotion, which has no sender, passes None and resolves the name once.
func (m *Master) registerApp(from tr, name, group string, units []resource.ScheduleUnit) (*appState, error) {
	st, err := m.sched.registerApp(name, group, units)
	if err != nil {
		return nil, err
	}
	st.ep = from
	if from == transport.None {
		st.ep = m.net.Endpoint(name)
	}
	for int(st.ep.Slot()) >= len(m.byEP) {
		m.byEP = append(m.byEP, nil)
	}
	m.byEP[st.ep.Slot()] = st
	return st, nil
}

// appAt resolves a wire application ID (an endpoint ID) to its state, nil
// when no registered app listens there — an earlier generation of the slot
// included.
func (m *Master) appAt(ep tr) *appState {
	if ep >= 0 && int(ep.Slot()) < len(m.byEP) {
		if st := m.byEP[ep.Slot()]; st != nil && st.ep == ep {
			return st
		}
	}
	return nil
}

// Footprint returns the lengths of the tables this process keeps per
// application-master endpoint slot — the endpoint index and the dedup
// tracker's by-sender rows — and of its scheduler's tables indexed by app ID
// (0 while it holds no scheduler).
func (m *Master) Footprint() (byEP, dedupSenders, appSlots int) {
	if m.sched != nil {
		appSlots = m.sched.appSlots()
	}
	return len(m.byEP), m.dedup.Senders(), appSlots
}

// appFrom resolves the app a message names by the endpoint it came from:
// registration, demand, returns, unregister and full sync alike. Only the
// app's own endpoint speaks for it, so an app registered elsewhere, or a
// message naming another app than its sender's, resolves to nil.
func (m *Master) appFrom(from tr, name string) *appState {
	if st := m.appAt(from); st != nil && st.name == name {
		return st
	}
	return nil
}

// compete (re-)enters the election. While partitioned from the lock service
// the process cannot reach the election at all; it polls reachability at the
// renewal period instead of queueing a waiter it could not have registered.
func (m *Master) compete() {
	if m.crashed {
		return
	}
	if m.cfg.LockReachable != nil && !m.cfg.LockReachable() {
		m.eng.After(renewEvery, m.compete)
		return
	}
	m.lockAbort = m.lock.AcquireOrWait(lockName, m.cfg.ProcessName, LockTTL, m.promote)
}

// promote turns this process into the primary: rebuild hard state from the
// checkpoint, collect soft state from agents and application masters, then
// resume scheduling (paper §4.3.1 / Figure 7).
func (m *Master) promote() {
	if m.crashed {
		return
	}
	m.primary = true
	m.leaseDeadline = m.eng.Now() + LockTTL
	m.capSeq = make([]protocol.Sequencer, m.top.Size())
	m.epoch = m.ckpt.BumpEpoch()
	sched := m.cfg.Sched
	if sched.Clock == nil {
		sched.Clock = m.eng.Now
	}
	m.sched = NewScheduler(m.top, sched) // byEP is all nil: a new or stood-down process

	// Hard state: application configurations and the cluster blacklist.
	// Each app's name is resolved to its endpoint once, here, and the
	// checkpoint's writer view is keyed by those endpoints from now on. An
	// app the scheduler refuses has no endpoint in it and stays unkeyed, to
	// be found by name.
	snap := m.ckpt.Load()
	eps := make([]tr, len(snap.Apps))
	for i, app := range snap.Apps {
		// Hard-state apps re-register silently; their demand arrives via
		// FullDemandSync during the recovery window.
		eps[i] = transport.None
		if st, err := m.registerApp(transport.None, app.Name, app.Group, app.Units); err == nil {
			eps[i] = st.ep
		}
	}
	m.ckpt.Bind(snap.Apps, eps)
	for _, b := range snap.Blacklist {
		id := m.top.MachineID(b.Machine)
		if id < 0 {
			continue // a machine the topology no longer holds
		}
		m.sched.SetBlacklisted(id, true)
		m.pins[id] |= b.Pins
		if b.Pins&pinFlap != 0 {
			// The score stood at least at the threshold when the pin was
			// set; the decay path ages it from there, as it would have on
			// the predecessor.
			m.flap[id] = max(m.flap[id], flapThreshold)
		}
	}
	if m.cfg.Obs != nil {
		m.initObs()
	}

	m.net.Register(protocol.MasterEndpoint, m.handle)
	m.timers = append(m.timers,
		m.eng.Every(renewEvery, m.renew),
		m.eng.Every(heartbeatScan, m.scanHeartbeats),
		m.eng.Every(flapDecayEvery, m.decayFlapScores))

	// Soft state: everyone re-sends. Fresh clusters (epoch 1) skip the
	// recovery pause.
	if m.epoch > 1 {
		m.recovering = true
		m.restored = make([]bool, m.top.Size())
		m.owedAnchors, m.owedSyncs = m.top.Size(), 0
		// Baseline every machine's heartbeat clock: a machine that was
		// already dead when the predecessor crashed never reports to the
		// successor, and with no baseline it would never trip the timeout
		// scan and would keep absorbing grants forever.
		now := m.eng.Now()
		for id := int32(0); id < int32(m.top.Size()); id++ {
			m.lastBeat[id] = now
		}
		hello := protocol.MasterHello{Epoch: m.epoch, Seq: m.seq.Next()}
		for id := int32(0); id < int32(m.top.Size()); id++ {
			m.net.SendID(m.epID, m.agentEP[id], hello)
		}
		for i := range snap.Apps {
			if st := m.appAt(eps[i]); st != nil && !st.owesSync {
				st.owesSync = true
				m.owedSyncs++
				m.net.SendID(m.epID, st.ep, hello)
			}
		}
		// The submission gateway (when deployed) replays its
		// admitted-but-unacknowledged jobs on this hello; without a gateway
		// the endpoint is unregistered and the message is dropped on arrival.
		m.net.SendID(m.epID, m.gwID, hello)
		m.timers = append(m.timers, m.eng.After(RecoveryWindow, m.finishRecovery))
	}
}

// reported records that one party owed to a recovery — a machine's anchor,
// a checkpointed app's sync or unregister — has reported. When it was the
// last, recovery ends at this instant, once the message in hand is handled,
// instead of waiting out RecoveryWindow (paper §4.3.1: the successor
// schedules again once its soft state is rebuilt).
func (m *Master) reported(anchors, syncs int) {
	m.owedAnchors -= anchors
	m.owedSyncs -= syncs
	if m.owedAnchors == 0 && m.owedSyncs == 0 {
		m.timers = append(m.timers, m.eng.After(0, m.finishRecovery))
	}
}

// finishRecovery ends a recovery: when every party has reported, or at the
// RecoveryWindow deadline, whichever comes first (the later call no-ops).
func (m *Master) finishRecovery() {
	if !m.primary || m.crashed || !m.recovering {
		return
	}
	m.recovering = false
	// Flush the held round in arrival order, then the buffered unregisters,
	// then one full assignment pass over all machines places everything
	// collected. The round's releases reach each agent in the same message as
	// its demand's grants there; the reassignment they enable is folded into
	// the final full sweep.
	var ds []Decision
	m.applyReleases(m.pendRet)
	m.placeInOrder(&ds)
	m.dropRound()
	m.dispatch(ds)
	for _, r := range m.recUnreg {
		m.unregister(r.from, r.app) // a step of its own: releases and their reassignment
	}
	m.recUnreg = nil
	final := m.sched.AssignOnAll()
	m.dispatch(final)
	ds = append(ds, final...)
	if m.cfg.OnRecovered != nil {
		reissued := 0
		for _, d := range ds {
			if d.Delta > 0 {
				reissued += d.Delta
			}
		}
		m.cfg.OnRecovered(m.epoch, reissued)
	}
}

func (m *Master) renew() {
	if m.crashed || !m.primary {
		return
	}
	if m.cfg.LockReachable != nil && !m.cfg.LockReachable() {
		// Partitioned from the lock service: the renewal cannot be sent. The
		// server side will expire the lease at leaseDeadline and promote the
		// standby, so this process must stop acting as primary by then —
		// arm the self-demotion check at exactly that instant (a renewal
		// that succeeds in the meantime moves the deadline forward and the
		// armed check no-ops).
		if m.eng.Now() >= m.leaseDeadline {
			m.demote()
			return
		}
		if !m.fenceArmed {
			m.fenceArmed = true
			m.eng.At(m.leaseDeadline, m.fenceCheck)
		}
		return
	}
	if !m.lock.Renew(lockName, m.cfg.ProcessName) {
		// Deposed (e.g. a long GC pause let the lease lapse): stand down.
		m.demote()
		return
	}
	m.leaseDeadline = m.eng.Now() + LockTTL
}

// fenceCheck fires at the lease deadline armed while the lock service was
// unreachable: if no renewal moved the deadline since, the lease has expired
// server-side and this process demotes itself.
func (m *Master) fenceCheck() {
	m.fenceArmed = false
	if m.crashed || !m.primary {
		return
	}
	if m.eng.Now() >= m.leaseDeadline {
		m.demote()
	}
}

func (m *Master) demote() {
	m.standDown()
	if !m.crashed {
		m.compete()
	}
}

// standDown ends a term as primary, deposed or crashed: the timers stop, and
// the scheduler goes together with the endpoint index that points into it.
// A process that no longer leads then keeps no application state alive: a
// promotion rebuilds all of it from the checkpoint and the re-reports (paper
// §4.3.1), so the old term's copy could only ever be read by mistake. What
// stays carries names and numbers only: the pooled scratch (dispatch leaves
// no app in it), and a demoted process's buffered round, which the recovery
// of a re-promotion holds and flushes with its own (finishRecovery).
func (m *Master) standDown() {
	m.primary = false
	for _, c := range m.timers {
		c()
	}
	m.timers = nil
	m.sched = nil
	clear(m.byEP) // its length is the endpoint slot count, kept for the next term
	m.recovering = false
}

// Crash kills this process: it stops renewing, drops its endpoint and all
// in-memory state. Soft state is lost; hard state survives in the
// checkpoint store. The standby takes over when the lease expires.
func (m *Master) Crash() {
	if m.crashed {
		return
	}
	m.crashed = true
	if m.lockAbort != nil {
		m.lockAbort()
	}
	if m.primary {
		// The endpoint stays registered until the successor replaces it;
		// mark it unreachable by dropping the handler.
		m.net.Unregister(protocol.MasterEndpoint)
	}
	m.standDown()
	m.recUnreg = nil
	m.pendDem, m.pendRet, m.pendHints = nil, nil, nil
	m.flushArm = false
}

// Restart revives a crashed process as a standby competing for the lock.
func (m *Master) Restart() {
	if !m.crashed {
		return
	}
	n := m.top.Size()
	m.crashed = false
	m.dedup = protocol.Dedup{}
	m.lastBeat = make([]sim.Time, n)
	m.strikes = make([]int, n)
	m.flap = make([]int, n)
	m.pins = make([]uint8, n)
	m.badVotes = make([]map[string]bool, n)
	m.compete()
}

// IsPrimary reports whether this process currently leads.
func (m *Master) IsPrimary() bool { return m.primary && !m.crashed }

// Primary returns whichever of the processes currently leads (nil entries
// are skipped), or nil during an interregnum.
func Primary(ms ...*Master) *Master {
	for _, m := range ms {
		if m != nil && m.IsPrimary() {
			return m
		}
	}
	return nil
}

// Scheduler exposes the live scheduling core (nil on standbys), for metrics
// sampling by experiment harnesses.
func (m *Master) Scheduler() *Scheduler {
	if !m.IsPrimary() {
		return nil
	}
	return m.sched
}

// Epoch returns the election epoch of this process's last promotion.
func (m *Master) Epoch() int { return m.epoch }

// ---------------------------------------------------------------------------
// message handling
// ---------------------------------------------------------------------------

// handle receives the primary's traffic; a pooled message is the network's
// again when it returns. A message that introduces, syncs or ends an app, or
// casts its vote against a machine, is taken only from the endpoint named
// after that app: from any other it is dropped whole, before a dedup mark
// moves.
func (m *Master) handle(from tr, msg transport.Message) {
	if !m.primary || m.crashed {
		return
	}
	switch t := msg.(type) {
	case *protocol.RegisterApp:
		if m.net.Name(from) != t.App || m.dedup.ObserveCh(int32(from), protocol.ChanReg, t.Seq) == protocol.Duplicate {
			return
		}
		m.handleRegister(from, t)
	case *protocol.DemandUpdate:
		// A malformed update (a zero count, a non-positive return, a hint at
		// a node the topology does not hold) is dropped whole, before its
		// sequence number is marked seen.
		if !t.WellFormed() || !m.holds(t.Deltas) ||
			m.dedup.ObserveCh(int32(from), protocol.ChanDem, t.Seq) == protocol.Duplicate {
			return
		}
		m.handleDemand(from, t)
	case *protocol.UnregisterApp:
		if m.net.Name(from) != t.App || m.dedup.ObserveCh(int32(from), protocol.ChanUnreg, t.Seq) == protocol.Duplicate {
			return
		}
		m.unregister(from, t.App)
	case *protocol.FullDemandSync:
		if m.net.Name(from) == t.App {
			m.handleFullSync(from, t)
		}
	case *protocol.AgentHeartbeat:
		m.handleHeartbeat(t)
	case protocol.CapacityQuery:
		m.handleCapacityQuery(t)
	case protocol.BadMachineReport:
		if m.net.Name(from) != t.App || m.dedup.ObserveCh(int32(from), protocol.ChanBad, t.Seq) == protocol.Duplicate {
			return
		}
		m.handleBadReport(t)
	case *protocol.JobAdmit:
		m.handleJobAdmit(t)
	case obs.QueryRequest:
		m.handleObsQuery(from, t)
	}
}

func (m *Master) handleRegister(from tr, t *protocol.RegisterApp) {
	if m.appFrom(from, t.App) != nil {
		return // failover re-registration; config already restored
	}
	st, err := m.registerApp(from, t.App, t.QuotaGroup, t.Units)
	if err != nil {
		return
	}
	// Hard state changes only on job submission/stop (paper §4.3.1).
	m.ckpt.SaveAppAt(st.ep, AppConfig{Name: t.App, Group: t.QuotaGroup, Units: t.Units})
}

// handleDemand adds one application master's update — its returns, then its
// demand — to the scheduling round. The round flushes at once when
// BatchWindow is zero and at the end of the window otherwise; a recovery
// holds it for finishRecovery. t is pooled: the round keeps copies.
func (m *Master) handleDemand(from tr, t *protocol.DemandUpdate) {
	for _, r := range t.Returns {
		m.pendRet = append(m.pendRet, returnRec{ret: r, app: t.App, from: from})
	}
	n := len(m.pendHints)
	m.pendHints = append(m.pendHints, t.Deltas...)
	m.pendDem = append(m.pendDem, demandRec{from: from, upd: protocol.DemandUpdate{
		App: t.App, Deltas: m.pendHints[n:len(m.pendHints):len(m.pendHints)], Seq: t.Seq}})
	switch {
	case m.recovering:
		// The grants being returned may not have been restored yet (their
		// agents' reports are still in flight), and granting before every
		// agent re-reported would double-book machines whose allocations are
		// not yet subtracted from the free pool (the successor starts from
		// full capacity and subtracts as reports arrive): the round waits.
	case m.cfg.BatchWindow > 0:
		m.armFlush()
	default:
		m.flushRound()
	}
}

// applyRuns places a demand payload's unit runs for st into ds, run by run
// in the order the app asked for them; runs of units the app never defined
// are passed over. Every run is placed before the step's one dispatch.
func (m *Master) applyRuns(st *appState, deltas []protocol.UnitHint, ds *[]Decision) {
	for rest := deltas; len(rest) > 0; {
		var run []protocol.UnitHint
		run, rest = protocol.NextRun(rest)
		if u := st.unit(run[0].UnitID); u != nil {
			m.sched.applyDemand(st, u, m.runHints(run), ds)
		}
	}
}

// runHints copies one unit run's hints into the pooled buffer the scheduler
// takes them from.
func (m *Master) runHints(run []protocol.UnitHint) []resource.LocalityHint {
	hb := m.hintBuf[:0]
	for i := range run {
		hb = append(hb, run[i].LocalityHint)
	}
	m.hintBuf = hb
	return hb
}

// decisions returns the pooled decision accumulator, emptied, by address: a
// local slice header whose address reaches the scheduler's walk state is a
// heap object per call. dispatch copies decisions into wire messages, so
// nothing keeps the buffer between uses.
func (m *Master) decisions() *[]Decision {
	m.dsBuf = m.dsBuf[:0]
	return &m.dsBuf
}

func (m *Master) armFlush() {
	if !m.flushArm {
		m.flushArm = true
		m.eng.PostFunc(m.cfg.BatchWindow, m.flushRound)
	}
}

// flushRound runs one scheduling round: apply every buffered release,
// reassign the freed machines to queued demand, place the round's demand,
// and fan the round's decisions out as a single batch. A batched round
// places its demand merged per app and unit (placeRound), a zero-width one
// in arrival order (placeInOrder). A recovery holds the round.
func (m *Master) flushRound() {
	m.flushArm = false
	if !m.primary || m.crashed || m.recovering {
		return
	}
	start := time.Now()
	ds := m.decisions()
	m.sched.assignOnIDsInto(m.applyReleases(m.pendRet), ds)
	if m.cfg.BatchWindow > 0 {
		m.placeRound(ds)
	} else {
		m.placeInOrder(ds)
	}
	m.dropRound()
	m.schedTook(start)
	m.dispatch(*ds)
	if m.cfg.Obs != nil {
		m.sampleObs()
	}
}

// placeInOrder places the round's demand into ds update by update, in the
// order the updates arrived.
func (m *Master) placeInOrder(ds *[]Decision) {
	for i := range m.pendDem {
		p := &m.pendDem[i]
		if st := m.appFrom(p.from, p.upd.App); st != nil {
			m.applyRuns(st, p.upd.Deltas, ds)
		}
	}
}

// placeRound schedules the round's buffered demand into ds, merged per app
// and unit: an app's units in the order its updates first asked for them.
func (m *Master) placeRound(ds *[]Decision) {
	// Chain each app's updates in arrival order, listing the apps as they
	// first appear. Updates whose app is not registered (any more) are
	// dropped, as a scheduler lookup by name would have refused them.
	m.round++
	apps := m.appBuf[:0]
	for i := range m.pendDem {
		p := &m.pendDem[i]
		p.next = -1
		st := m.appFrom(p.from, p.upd.App)
		if st == nil {
			continue
		}
		if st.pendRound != m.round {
			st.pendRound, st.pendHead = m.round, int32(i)
			apps = append(apps, st)
		} else {
			m.pendDem[st.pendTail].next = int32(i)
		}
		st.pendTail = int32(i)
	}
	slices.SortFunc(apps, func(a, b *appState) int { return strings.Compare(a.name, b.name) })
	for _, st := range apps {
		m.placeApp(st, ds)
	}
	clear(apps) // the pooled list must not pin unregistered apps
	m.appBuf = apps[:0]
}

// placeApp places one app's demand of a round, merged per (unit, locality
// target) before scheduling — the paper's compact batch handling of
// "frequently changing resource requests from one application". Each unit
// gathers its hints from every update the app sent, and the units go in the
// order they were first asked for. Gathering is linear in the hints: one
// pass counts each unit's hints, laying the units out in unitBuf, and a
// second copies them into the unit's own stretch of hintBuf.
func (m *Master) placeApp(st *appState, ds *[]Decision) {
	for len(m.unitSlot) < len(st.unitArr) {
		m.unitSlot = append(m.unitSlot, -1)
	}
	units, total := m.unitBuf[:0], 0
	for i := st.pendHead; i >= 0; i = m.pendDem[i].next {
		for rest := m.pendDem[i].upd.Deltas; len(rest) > 0; {
			var run []protocol.UnitHint
			run, rest = protocol.NextRun(rest)
			u := st.unit(run[0].UnitID)
			if u == nil {
				continue
			}
			k := m.unitSlot[u.idx]
			if k < 0 {
				k = int32(len(units))
				m.unitSlot[u.idx] = k
				units = append(units, roundUnit{u: u})
			}
			units[k].n += int32(len(run))
			total += len(run)
		}
	}
	off := int32(0)
	for k := range units {
		n := units[k].n
		units[k].off, units[k].n = off, 0
		off += n
	}
	hb := slices.Grow(m.hintBuf[:0], total)[:total]
	for i := st.pendHead; i >= 0; i = m.pendDem[i].next {
		for rest := m.pendDem[i].upd.Deltas; len(rest) > 0; {
			var run []protocol.UnitHint
			run, rest = protocol.NextRun(rest)
			u := st.unit(run[0].UnitID)
			if u == nil {
				continue
			}
			r := &units[m.unitSlot[u.idx]]
			for j := range run {
				hb[r.off+r.n] = run[j].LocalityHint
				r.n++
			}
		}
	}
	for k := range units {
		r := &units[k]
		m.placeMerged(st, r.u, hb[r.off:r.off+r.n], ds)
		m.unitSlot[r.u.idx] = -1
	}
	clear(units) // the pooled list must not pin unregistered apps
	m.unitBuf = units[:0]
	m.hintBuf = hb
}

// placeMerged places one unit's hints for a round, sorted by (type, node)
// with each target's counts summed: the map-and-sort result without the maps.
func (m *Master) placeMerged(st *appState, u *unitState, hb []resource.LocalityHint, ds *[]Decision) {
	resource.SortHints(hb)
	w := 0
	for i := 0; i < len(hb); {
		j, total := i, 0
		for ; j < len(hb) && hb[j].Type == hb[i].Type && hb[j].Node == hb[i].Node; j++ {
			total += hb[j].Count
		}
		if total != 0 {
			hb[w] = resource.LocalityHint{Type: hb[i].Type, Node: hb[i].Node, Count: total}
			w++
		}
		i = j
	}
	m.sched.applyDemand(st, u, hb[:w], ds)
}

// dropRound empties the round's buffers and the arena behind its hint lists,
// zeroed so the pooled storage pins no names.
func (m *Master) dropRound() {
	clear(m.pendDem)
	m.pendDem = m.pendDem[:0]
	clear(m.pendRet)
	m.pendRet = m.pendRet[:0]
	clear(m.pendHints)
	m.pendHints = m.pendHints[:0]
}

// applyReleases gives the returned containers back to the pool (without
// reassigning) and returns the touched machines in first-seen order. The
// agents must release the capacity even though the apps initiated it, but
// the releases are not sent here: they stay open in m.dsp, one accumulator
// per touched agent, and the dispatch that ends the step appends the grants
// the freed capacity enables to the same accumulators — so an agent whose
// capacity is released and regranted in one step hears it in one
// CapacityDelta, releases first (paper §3.1's incremental roll-up). Every
// caller ends its step with a dispatch, with or without decisions.
func (m *Master) applyReleases(rets []returnRec) []int32 {
	if len(rets) == 0 {
		return nil
	}
	d := m.openReleases()
	m.touched = m.touched[:0]
	for i := range rets {
		t := &rets[i].ret
		st := m.appFrom(rets[i].from, rets[i].app)
		if st == nil {
			continue
		}
		u := st.unit(t.UnitID)
		if u == nil {
			continue
		}
		if err := m.sched.releaseChecked(st, u, t.Machine, t.Count); err != nil {
			continue
		}
		ag := d.agentFor(t.Machine)
		if len(ag.entries) == 0 {
			m.touched = append(m.touched, t.Machine)
		}
		ag.entries = append(ag.entries, protocol.CapacityEntry{
			App: int32(st.ep), UnitID: t.UnitID, Size: u.def.Size, Count: -t.Count,
		})
	}
	return m.touched
}

// openReleases returns the fan-out accumulators with release entries open:
// started afresh unless a release of the same step is already open.
func (m *Master) openReleases() *dispatchScratch {
	d := &m.dsp
	if !d.open {
		d.reset(m.top.Size())
		d.open = true
	}
	return d
}

// unregister applies an UnregisterApp for app and acknowledges it to from,
// the endpoint that sent it.
func (m *Master) unregister(from tr, app string) {
	if m.recovering {
		// Unregistering now would release only the grants restored so far;
		// agents yet to re-report would keep capacity entries for an app
		// the master no longer knows, orphaning them forever. Replay once
		// every restore has landed.
		m.recUnreg = append(m.recUnreg, unregRec{app: app, from: from})
		if st := m.appFrom(from, app); st != nil && st.owesSync {
			st.owesSync = false
			m.reported(0, 1)
		}
		return
	}
	// Collect the agents' releases of the app's capacity before the
	// scheduler state disappears: all of the app's units on one agent go
	// into that agent's one message, which the dispatch below also carries
	// the reassignment of the freed capacity in.
	d := m.openReleases()
	st := m.appFrom(from, app)
	if st != nil {
		for i := range st.unitArr {
			u := &st.unitArr[i]
			for _, c := range u.granted.Cells() {
				ag := d.agentFor(int32(c.Key))
				ag.entries = append(ag.entries, protocol.CapacityEntry{
					App: int32(st.ep), UnitID: u.def.ID, Size: u.def.Size, Count: -c.Val,
				})
			}
		}
		if m.byEP[st.ep.Slot()] == st {
			m.byEP[st.ep.Slot()] = nil
		}
	}
	ds := m.decisions()
	ep := transport.None // an app the scheduler refused: its record, if any, is unkeyed
	if st != nil {
		m.sched.unregister(st, ds)
		ep = st.ep
	}
	m.ckpt.RemoveAppAt(ep, app)
	m.dispatch(*ds)
	// Acknowledge — idempotently, so a re-sent unregister whose original
	// (or whose ack) died with a deposed primary is confirmed too. Without
	// the ack-and-retry loop, the app's capacity would be resurrected from
	// agent anchors at the next promotion and stranded forever.
	ack := transport.Acquire[protocol.UnregisterAck](m.net)
	ack.App, ack.Epoch, ack.Seq = app, m.epoch, m.seq.Next()
	m.net.SendID(m.epID, from, ack)
}

// handleFullSync reconciles the master's view of one app against the app's
// full sync. t is pooled: nothing of it is kept past the return.
func (m *Master) handleFullSync(from tr, t *protocol.FullDemandSync) {
	if !t.WellFormed() || !m.holds(t.Demand) {
		// No application master sends a malformed sync or one that asks for
		// a node outside the topology; whatever did gets nothing applied —
		// not the registration, not the dedup re-baseline.
		return
	}
	st := m.appFrom(from, t.App)
	if st == nil {
		// The sync registers an app this process does not know. When the
		// scheduler refuses it, its configuration is saved all the same,
		// unkeyed: no endpoint keys an app that is not registered.
		cfg := AppConfig{Name: t.App, Group: t.QuotaGroup, Units: t.Units}
		var err error
		if st, err = m.registerApp(from, t.App, t.QuotaGroup, t.Units); err == nil {
			m.ckpt.SaveAppAt(st.ep, cfg)
		} else if st = m.sched.apps[t.App]; st == nil {
			m.ckpt.SaveApp(cfg)
			return
		}
	}
	// Fence against the sync/grant crossing race: when grants dispatched to
	// this app are still in flight (the sync's SeenGrantSeq is behind the
	// last GrantUpdate sent, and that send is recent enough to still be on
	// the wire), the sync's demand and held views are stale snapshots —
	// reconciling against them would re-raise demand the in-flight grants
	// already consumed, leaving phantom queued demand the unit can never
	// absorb (the steady-state churn benchmark surfaced exactly this as
	// permanently saturated queue entries rescanned by every sweep). Skip
	// such a sync; the next one — sent after the grants landed — repairs
	// any genuine divergence. Beyond the fence window the sequence gap
	// means the grant was LOST, and reconciling is exactly the repair the
	// safety sync exists to perform.
	stale := st.lastGrantSeq > t.SeenGrantSeq &&
		m.eng.Now()-st.lastGrantAt < syncFenceWindow
	if !stale {
		// Deltas of this app still buffered in the round — a batched one, or
		// one a recovery holds — are already folded into the sync's absolute
		// counts; letting the flush replay them would double-apply the
		// demand. Later deltas (Seq beyond the sync) remain genuinely
		// incremental. Buffered returns are untouched: the agents' reports
		// still carry the returned containers, so the flush is their
		// exactly-once release.
		m.pendDem = dropSynced(m.pendDem, t)
		// Demand reconciliation: force tree counts to the app's view. When
		// the sync surfaces demand the master had lost (a dropped delta),
		// run an assignment pass so it doesn't starve waiting for the next
		// free-up. Both the units and the sync's runs are in unit-ID order, so
		// one cursor walks the runs beside the units (runs of units the app
		// never registered are passed over).
		raised := false
		demand := t.Demand
		for i := range st.unitArr {
			u := &st.unitArr[i]
			var run []protocol.UnitHint
			run, demand = unitRun(demand, u.def.ID, func(h *protocol.UnitHint) int { return h.UnitID })
			if m.reconcileDemand(st, u, run) {
				raised = true
			}
		}
		if raised && !m.recovering {
			m.dispatch(m.sched.AssignOnAll())
		}
		// Grant reconciliation: during recovery the agents' reports are
		// authoritative and arrive separately; outside recovery the master's
		// ledger is authoritative and differences are re-announced to the app,
		// every unit's in one GrantUpdate.
		if !m.recovering {
			var gu *protocol.GrantUpdate
			held := t.Held
			for i := range st.unitArr {
				u := &st.unitArr[i]
				var run []protocol.SyncHeld
				run, held = unitRun(held, u.def.ID, func(h *protocol.SyncHeld) int { return h.UnitID })
				gu = m.reconcileHeld(st, u, run, gu)
			}
			if gu != nil {
				m.net.SendID(m.epID, st.ep, gu)
			}
		}
	}
	// The sync carries the app's current sequence number; re-baseline every
	// per-channel high-water mark so a restarted application master (fresh
	// sequencer, t.Seq below the high-water marks) is not mistaken for a
	// replayer — that downward reset must happen even for a stale-fenced
	// sync, or the restarted instance's messages are dropped as duplicates
	// until its next sync. An UPWARD reset, though, only accompanies an
	// applied sync: advancing the marks past deltas still in flight (a
	// reordered DemandUpdate under jitter) would drop them as duplicates
	// with their content never reconciled.
	for _, ch := range []protocol.Chan{protocol.ChanDem, protocol.ChanUnreg,
		protocol.ChanBad, protocol.ChanReg} {
		if !stale || t.Seq < m.dedup.LastCh(int32(from), ch) {
			m.dedup.ResetToCh(int32(from), ch, t.Seq)
		}
	}
	if !stale && m.recovering && st.owesSync {
		st.owesSync = false
		m.reported(0, 1)
	}
}

// dropSynced removes from a demand buffer the updates a full sync from the
// same app already accounts for (sequence numbers up to the sync's), in
// place, keeping the rest in order.
func dropSynced(buf []demandRec, t *protocol.FullDemandSync) []demandRec {
	kept := buf[:0]
	for _, d := range buf {
		if d.upd.App != t.App || d.upd.Seq > t.Seq {
			kept = append(kept, d)
		}
	}
	clear(buf[len(kept):])
	return kept
}

// syncFenceWindow bounds how long after a grant send a behind-sequence
// full sync is treated as an in-flight crossing rather than a loss. It must
// comfortably exceed the one-way delivery latency plus jitter (sub-ms in
// every configuration) while staying well under the full-sync period.
const syncFenceWindow = 100 * sim.Millisecond

// unitRun splits a unit-sorted sync payload at unit id: run is id's entries,
// rest what follows them. Entries of lower unit IDs — units the app never
// registered — are skipped.
func unitRun[E any](list []E, id int, unitOf func(*E) int) (run, rest []E) {
	i := 0
	for i < len(list) && unitOf(&list[i]) < id {
		i++
	}
	j := i
	for j < len(list) && unitOf(&list[j]) == id {
		j++
	}
	return list[i:j], list[j:]
}

// holds reports whether every hint names a node of the topology.
func (m *Master) holds(hints []protocol.UnitHint) bool {
	for i := range hints {
		if !m.top.Holds(hints[i].Type, hints[i].Node) {
			return false
		}
	}
	return true
}

// compareWant orders a sync's demand entry against a tree node by
// (level, node), the order of both.
func compareWant(h protocol.UnitHint, idx treeIdx) int {
	return cmp.Or(cmp.Compare(h.Type, idx.level), cmp.Compare(h.Node, idx.node))
}

// reconcileDemand forces the tree counts for (app, unit) to the app's view,
// which the sync lists strictly ascending by (level, node), and reports
// whether any count increased.
func (m *Master) reconcileDemand(st *appState, u *unitState, want []protocol.UnitHint) bool {
	key := waitKey{app: st.id, unit: u.idx}
	tree, now := m.sched.tree, m.sched.now()
	raised := false
	// Zero out entries not in the app's view; set entries that are.
	m.idxBuf = tree.nodesFor(key, m.idxBuf[:0])
	for _, idx := range m.idxBuf {
		tc := 0
		if i, ok := slices.BinarySearchFunc(want, idx, compareWant); ok {
			tc = want[i].Count
			if tc > tree.get(key, idx.level, idx.node) {
				raised = true
			}
		}
		tree.setCount(key, u.def.Priority, idx.level, idx.node, tc, now, st, u)
	}
	// Insert missing entries in (level, node) order: new tree entries get
	// queue positions (seq) at insertion, so the order is scheduling order.
	// Every entry the app wants and the tree had now holds the wanted count,
	// so a wanted node that reads zero has no entry.
	for i := range want {
		h := &want[i].LocalityHint
		if h.Count > 0 && tree.get(key, h.Type, h.Node) == 0 {
			tree.add(key, u.def.Priority, h.Type, h.Node, h.Count, now, st, u)
			raised = true
		}
	}
	return raised
}

// reconcileHeld appends to the sync's re-announcement gu an entry for every
// machine where the app's held view of u differs from the master's ledger,
// and returns it. Both sides are in machine order, so one merge finds the
// differences in the order they go on the wire, straight into a pooled
// GrantUpdate drawn — with its sequence number — at the sync's first
// difference.
func (m *Master) reconcileHeld(st *appState, u *unitState, view []protocol.SyncHeld, gu *protocol.GrantUpdate) *protocol.GrantUpdate {
	cells := u.granted.Cells()
	for i, j := 0, 0; i < len(cells) || j < len(view); {
		var mc int32
		granted, held := 0, 0
		switch {
		case j == len(view) || i < len(cells) && int32(cells[i].Key) < view[j].Machine:
			mc, granted = int32(cells[i].Key), cells[i].Val
			i++
		case i == len(cells) || view[j].Machine < int32(cells[i].Key):
			mc, held = view[j].Machine, view[j].Count
			j++
		default:
			mc, granted, held = view[j].Machine, cells[i].Val, view[j].Count
			i++
			j++
		}
		if granted == held {
			continue
		}
		if gu == nil {
			seq := st.grantSeq.Next()
			st.lastGrantSeq = seq
			st.lastGrantAt = m.eng.Now()
			gu = transport.Acquire[protocol.GrantUpdate](m.net)
			gu.App, gu.Epoch, gu.Seq = st.name, m.epoch, seq
		}
		gu.Changes = append(gu.Changes, protocol.UnitDelta{UnitID: u.def.ID, Machine: mc, Delta: granted - held})
	}
	return gu
}

func (m *Master) handleHeartbeat(t *protocol.AgentHeartbeat) {
	mc := t.Machine
	if mc < 0 || int(mc) >= len(m.lastBeat) {
		return
	}
	m.lastBeat[mc] = m.eng.Now()
	if m.sched.Down(mc) {
		// The node recovered (or its network partition healed).
		m.dispatch(m.sched.MachineUp(mc))
		// A machine declared dead across a partition never restarted: its
		// agent still carries every pre-partition grant, including ones the
		// master has since revoked and reissued elsewhere. Re-baseline its
		// ledger with a full sync (which also covers the grants just
		// re-dispatched above — the sync snapshot is taken after them, and
		// the per-agent sequence makes the overlap dedup away cleanly).
		m.sendCapacitySync(mc)
	}
	if m.recovering && !m.restored[mc] {
		if t.Full {
			// Restore exactly once per machine per recovery, and only from
			// an anchor beat: a delta beat carries an incomplete table, and
			// a second heartbeat inside the window must not double the
			// allocations.
			m.restored[mc] = true
			for _, d := range t.Allocations {
				// Allocations of apps the checkpoint did not name are left to
				// the re-registration that follows.
				if st := m.appAt(tr(d.App)); st != nil {
					m.sched.restoreGrant(st, d.UnitID, mc, d.Count)
				}
			}
			m.reported(1, 0)
		} else {
			// A delta beat from a machine whose anchor has not landed (the
			// hello or its reply was lost): nudge the agent to re-anchor
			// before the recovery window closes.
			m.net.SendID(m.epID, m.agentEP[mc],
				protocol.MasterHello{Epoch: m.epoch, Seq: m.seq.Next()})
		}
	}
	// Health-score graylisting.
	if t.HealthScore < healthScoreThreshold {
		m.strikes[mc]++
		if m.strikes[mc] >= healthScoreStrikes && !m.sched.Blacklisted(mc) {
			m.blacklist(mc, 0)
		}
	} else {
		m.strikes[mc] = 0
		if m.sched.Blacklisted(mc) && m.pins[mc] == 0 {
			// Score recovered and neither job votes nor the flap score pin
			// it: rehabilitate. Flap-blacklisted machines heartbeat healthily
			// between crashes, so only the decay path may clear them.
			m.dispatch(m.sched.SetBlacklisted(mc, false))
			m.saveBlacklist()
		}
	}
}

// handleJobAdmit acknowledges one job handed over by the submission
// gateway. Deliberately not sequence-deduplicated: the gateway re-sends the
// admit until an ack lands, and every copy — including one whose original
// ack died with a deposed primary — must be re-acknowledged. The handler is
// idempotent because it changes no scheduler state; the job's resources
// enter through the application master's own RegisterApp/DemandUpdate once
// the gateway releases it.
func (m *Master) handleJobAdmit(t *protocol.JobAdmit) {
	ack := transport.Acquire[protocol.JobAdmitAck](m.net)
	ack.JobID, ack.Row, ack.Epoch, ack.Seq = t.JobID, t.Row, m.epoch, m.seq.Next()
	m.net.SendID(m.epID, m.gwID, ack)
}

// noteFlap records one master-observed death of a machine and blacklists it
// at the flap threshold — the cluster-level half of the multi-level
// blacklist (the job-level, bottom-up half is internal/blacklist).
func (m *Master) noteFlap(mc int32) {
	m.flap[mc] += flapPenalty
	if m.flap[mc] >= flapThreshold {
		if !m.sched.Blacklisted(mc) {
			m.blacklist(mc, pinFlap)
		} else if m.pins[mc]&pinFlap == 0 {
			// Pin the machine even when another signal blacklisted it first:
			// otherwise one healthy heartbeat (resetting the strikes) would
			// rehabilitate a node whose flap score still sits at threshold.
			m.pins[mc] |= pinFlap
			m.saveBlacklist()
		}
	}
}

// decayFlapScores ages every flap score and rehabilitates machines whose
// score fell back below the threshold, unless health-score strikes or job
// bad-reports independently pin them. Machines are visited in ID (=
// topology) order so rehabilitation dispatch order is reproducible.
func (m *Master) decayFlapScores() {
	if !m.primary || m.crashed {
		return
	}
	for mc := int32(0); int(mc) < len(m.flap); mc++ {
		sc := m.flap[mc]
		if sc == 0 && m.pins[mc]&pinFlap == 0 {
			// Neither a live score nor a pin — nothing to age. (A pinned
			// machine must keep being visited even after its score decayed
			// away while strikes or bad votes blocked rehabilitation, or
			// the pin would leak and blacklist it forever.)
			continue
		}
		if sc > 0 {
			sc -= flapDecayStep
			if sc <= 0 {
				sc = 0
			}
			m.flap[mc] = sc
		}
		if m.pins[mc] == pinFlap && sc < flapThreshold &&
			m.strikes[mc] < healthScoreStrikes {
			m.pins[mc] = 0
			m.dispatch(m.sched.SetBlacklisted(mc, false))
			m.saveBlacklist()
		}
	}
}

// handleCapacityQuery answers a restarting agent with its full granted
// capacity table (agent failover, paper §4.3.1).
func (m *Master) handleCapacityQuery(t protocol.CapacityQuery) {
	mc := t.Machine
	if mc < 0 || int(mc) >= len(m.agentEP) {
		return
	}
	// A capacity query from a machine the master never declared dead is a
	// surprise agent restart — the second flap signal besides heartbeat
	// timeouts (a timeout-declared death was already scored when the scan
	// found it, and its recovery query must not count twice). Gap-repair
	// queries are explicitly exempt: a lossy link is the transport's fault,
	// and scoring it would blacklist healthy machines under chaos.
	if !t.Repair && !m.sched.Down(mc) {
		m.noteFlap(mc)
	}
	m.sendCapacitySync(mc)
}

// sendCapacitySync replies to mc with its full granted capacity table — the
// anchor that re-baselines an agent's ledger after a restart, a detected
// delta gap, or a healed partition.
func (m *Master) sendCapacitySync(mc int32) {
	m.net.SendID(m.epID, m.agentEP[mc], protocol.CapacitySync{
		Machine: mc, Entries: m.sched.capacityTable(mc), Epoch: m.epoch, Seq: m.capSeq[mc].Next(),
	})
}

func (m *Master) handleBadReport(t protocol.BadMachineReport) {
	mc := t.Machine
	if mc < 0 || int(mc) >= len(m.badVotes) {
		return
	}
	votes := m.badVotes[mc]
	if votes == nil {
		votes = make(map[string]bool)
		m.badVotes[mc] = votes
	}
	votes[t.App] = true
	if len(votes) < badReportThreshold {
		return
	}
	pinned := m.pins[mc]&pinVotes != 0
	m.pins[mc] |= pinVotes
	if !m.sched.Blacklisted(mc) {
		m.blacklist(mc, 0)
	} else if !pinned {
		m.saveBlacklist() // a listed machine's pins are hard state too
	}
}

// blacklist lists machine mc, held by pin (0 when its health score alone
// lists it), unless the list is at its cap.
func (m *Master) blacklist(mc int32, pin uint8) {
	if len(m.currentBlacklist()) >= blacklistCap {
		return // bounded, per the paper's abuse guard
	}
	m.pins[mc] |= pin
	m.dispatch(m.sched.SetBlacklisted(mc, true))
	m.saveBlacklist()
}

// saveBlacklist writes the cluster blacklist and its pins to the
// checkpoint. The list is hard state (paper §4.3.1); it serializes as
// names — IDs never reach durable state.
func (m *Master) saveBlacklist() { m.ckpt.SetBlacklist(m.currentBlacklist()) }

func (m *Master) currentBlacklist() []BlacklistEntry {
	var out []BlacklistEntry
	for id := int32(0); int(id) < m.top.Size(); id++ {
		if m.sched.Blacklisted(id) {
			out = append(out, BlacklistEntry{Machine: m.top.MachineName(id), Pins: m.pins[id]})
		}
	}
	return out
}

// scanHeartbeats declares machines dead on heartbeat timeout: one pass over
// lastBeat, in machine-ID order, revokes every machine that was heard from
// (lastBeat 0 is never, as after a restart), is not already down, and has
// been silent since before now - heartbeatTimeout.
func (m *Master) scanHeartbeats() {
	if !m.primary || m.crashed {
		return
	}
	cutoff := m.eng.Now() - heartbeatTimeout
	for i, last := range m.lastBeat {
		mc := int32(i)
		if last == 0 || last >= cutoff || m.sched.Down(mc) {
			continue
		}
		// Heartbeat timeout: remove from scheduling and revoke so job
		// masters migrate instances (paper §4.3.2), and score the death for
		// the cluster-level flap blacklist.
		m.dispatch(m.sched.MachineDown(mc))
		m.noteFlap(mc)
	}
}

// dispatchScratch holds the reusable fan-out accumulators behind dispatch,
// applyReleases and the unregister fan-out. The accumulators grow in place
// and are truncated (never freed) between uses, and the messages they are
// copied into are pooled with their payload buffers, so a steady stream of
// scheduling rounds allocates nothing to fan out.
type dispatchScratch struct {
	apps   []appAcc
	agents []agentAcc
	// slot finds a machine's accumulator without searching: slot[machine]
	// is its index in agents if stamped with the current use's gen, stale
	// otherwise — a wide round touches hundreds of machines, and a scan per
	// decision was quadratic in them.
	slot []agentSlot
	gen  uint32
	// open marks release entries accumulated in agents that the step's
	// dispatch has not sent yet; until it has, the accumulators must not be
	// reset.
	open bool
}

type agentSlot struct {
	gen uint32
	idx int32
}

type unitAcc struct {
	unit   int
	deltas []protocol.UnitDelta
}

type appAcc struct {
	st    *appState
	units []unitAcc
}

type agentAcc struct {
	machine int32
	entries []protocol.CapacityEntry
}

// reset starts a new use over a cluster of the given size. Resetting over
// open release entries would drop them unsent, and an agent's ledger would
// keep capacity its master has taken back.
func (d *dispatchScratch) reset(machines int) {
	if d.open {
		panic("master: fan-out reset over unsent release entries")
	}
	d.apps = d.apps[:0]
	d.agents = d.agents[:0]
	if d.slot == nil {
		d.slot = make([]agentSlot, machines)
	}
	if d.gen++; d.gen == 0 { // wrapped: every stale stamp would look current
		clear(d.slot)
		d.gen = 1
	}
}

// appFor returns the accumulator for an app, creating (or reviving a
// truncated slot for) it on first use. Linear search on the state pointer:
// a round rarely touches more than a few hundred distinct applications and
// the constant factor beats a map.
func (d *dispatchScratch) appFor(st *appState) *appAcc {
	for i := range d.apps {
		if d.apps[i].st == st {
			return &d.apps[i]
		}
	}
	if len(d.apps) < cap(d.apps) {
		d.apps = d.apps[:len(d.apps)+1]
		a := &d.apps[len(d.apps)-1]
		a.st = st
		a.units = a.units[:0]
		return a
	}
	d.apps = append(d.apps, appAcc{st: st})
	return &d.apps[len(d.apps)-1]
}

func (a *appAcc) unitFor(unit int) *unitAcc {
	for i := range a.units {
		if a.units[i].unit == unit {
			return &a.units[i]
		}
	}
	if len(a.units) < cap(a.units) {
		a.units = a.units[:len(a.units)+1]
		u := &a.units[len(a.units)-1]
		u.unit = unit
		u.deltas = u.deltas[:0]
		return u
	}
	a.units = append(a.units, unitAcc{unit: unit})
	return &a.units[len(a.units)-1]
}

func (d *dispatchScratch) agentFor(machine int32) *agentAcc {
	if sl := &d.slot[machine]; sl.gen == d.gen {
		return &d.agents[sl.idx]
	}
	d.slot[machine] = agentSlot{gen: d.gen, idx: int32(len(d.agents))}
	if len(d.agents) < cap(d.agents) {
		d.agents = d.agents[:len(d.agents)+1]
		a := &d.agents[len(d.agents)-1]
		a.machine = machine
		a.entries = a.entries[:0]
		return a
	}
	d.agents = append(d.agents, agentAcc{machine: machine})
	return &d.agents[len(d.agents)-1]
}

// dispatch fans scheduling decisions out as GrantUpdates to application
// masters and capacity deltas to the affected agents, and ends the step:
// release entries left open by applyReleases or unregister go out with it,
// even when the step made no decision. Both sides are delta-encoded and
// coalesced to one message per receiver: all of an app's grants and
// revocations in one GrantUpdate, each unit's a run of (machine, ±count)
// entries — the paper's "(M1,3), (M2,4)" multi-machine response form, for
// every unit of the app at once — and all of an agent's capacity changes,
// the step's releases ahead of its grants and revocations, in one
// CapacityDelta, so a wide scheduling round costs one message per app and
// one per machine instead of one per decision. The decisions carry interned
// app/machine state, so the fan-out hashes one app name per app run, not one
// per decision.
func (m *Master) dispatch(ds []Decision) {
	d := &m.dsp
	if !d.open {
		if len(ds) == 0 {
			return
		}
		d.reset(m.top.Size())
	}
	d.open = false
	for _, dec := range ds {
		st := m.sched.appStateByID(dec.AppID)
		if st == nil {
			continue
		}
		ua := d.appFor(st).unitFor(dec.UnitID)
		ua.deltas = append(ua.deltas, protocol.UnitDelta{UnitID: dec.UnitID, Machine: dec.MachineID, Delta: dec.Delta})
		if u := st.unit(dec.UnitID); u != nil {
			ag := d.agentFor(dec.MachineID)
			ag.entries = append(ag.entries, protocol.CapacityEntry{
				App: int32(st.ep), UnitID: dec.UnitID, Size: u.def.Size, Count: dec.Delta,
			})
		}
	}
	for i := range d.agents {
		// A pooled CapacityDelta owns its copy of the entries.
		ag := &d.agents[i]
		cd := transport.Acquire[protocol.CapacityDelta](m.net)
		cd.Entries = append(cd.Entries, ag.entries...)
		cd.Epoch, cd.Seq = m.epoch, m.capSeq[ag.machine].Next()
		m.net.SendID(m.epID, m.agentEP[ag.machine], cd)
	}
	for i := range d.apps {
		// A pooled GrantUpdate owns its copy of the app's unit runs, in the
		// order the step first decided for each unit.
		aa := &d.apps[i]
		seq := aa.st.grantSeq.Next()
		aa.st.lastGrantSeq = seq
		aa.st.lastGrantAt = m.eng.Now()
		gu := transport.Acquire[protocol.GrantUpdate](m.net)
		gu.App, gu.Epoch, gu.Seq = aa.st.name, m.epoch, seq
		for j := range aa.units {
			gu.Changes = append(gu.Changes, aa.units[j].deltas...)
		}
		m.net.SendID(m.epID, aa.st.ep, gu)
		aa.st = nil // the pooled accumulator must not pin an app that unregisters
	}
}
