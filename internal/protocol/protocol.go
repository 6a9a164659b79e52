// Package protocol defines the wire messages of Fuxi's incremental resource
// management protocol (paper §3) and the sequencing helpers that make delta
// exchange safe over an unreliable network: per-sender sequence numbers give
// receivers duplicate suppression and gap detection, and periodic full-state
// sync messages repair any divergence ("as a safety measurement, application
// masters exchange with FuxiMaster the full state of resources periodically
// to fix any possible inconsistency").
//
// One message per direction per step: an application master says everything
// of one instant — the containers it returns and the demand it adds or
// withdraws — in one DemandUpdate, and FuxiMaster answers each step with one
// GrantUpdate per application and one CapacityDelta per agent.
//
// Identifier convention: messages on the per-decision hot paths (demand
// hints, grants, returns, capacity deltas, heartbeats) carry machines and
// racks as dense int32 IDs — the topology-derived index every process
// computes identically from the shared sorted name lists — so receivers
// index slices instead of hashing names, and a hint is a fixed-width record
// that FuxiMaster checks with one topology.Holds. Applications travel two ways. Messages an application master sends
// keep its name (RegisterApp must introduce it, and the name is what the
// checkpoint stores), but the receiver does not hash it: the sender's
// transport endpoint ID arrives with every message and the master indexes
// its application state by that. Messages between FuxiMaster and the agents
// (capacity deltas and syncs, heartbeat allocation tables) identify the
// application by that same endpoint ID and carry no name at all — unlike the
// scheduler's own app IDs, which a successor master reassigns, an endpoint ID
// means the same application to every process in every master epoch. The
// network recycles a finished application's endpoint slot, but under a new
// generation: the old ID never names the slot's next owner, and a message
// still carrying it is fenced on arrival. Worker-management
// messages name their machine by the same dense ID (WorkerStatus,
// WorkerListRequest): the application master drops one whose machine the
// topology does not hold, and addresses an agent only through a name the
// network already knows, so no hostile ID grows the endpoint table. They
// carry no application at all: a worker is the pair (application endpoint
// ID, worker number), the application is the sender of a plan, stop or list
// reply and the receiver of a status, and each receiver acts for the endpoint
// the network says sent the message, never for one the message names.
//
// Pooled messages: the ten types every job, every scheduling decision, every
// safety sync or every agent beat sends — RegisterApp, DemandUpdate,
// GrantUpdate, UnregisterApp, UnregisterAck, CapacityDelta, JobAdmit,
// JobAdmitAck, FullDemandSync, AgentHeartbeat — travel as pointers
// drawn from the network's free lists (transport.Acquire) and implement
// transport.Recycled (pool.go). Such a message and its payload slices are
// valid until the receiving handler returns, then the network zeroes and
// reuses them; a receiver that keeps a hint list, an entry or the message
// itself past that point copies it. The payloads the message owns (Deltas,
// Returns, Changes, Entries, Demand, Held, Allocations) are filled with append
// into whatever capacity the last use left; the Units of RegisterApp and
// FullDemandSync are the borrowed payloads — they alias the application
// master's own configuration, as they always have, and are dropped, not
// zeroed, on release. A receiver accepts only the pointer form, the one
// every real sender sends: a test draws its message with Acquire or writes a
// pointer literal, and the network clears that after delivery too, so a
// duplicate is two messages carrying one Seq, never one pointer sent twice.
// The value forms are what Keep returns for a recorder; WireSize is declared
// on them, so a kept copy reports the size of the message it copies.
package protocol

import "repro/internal/resource"

// ---------------------------------------------------------------------------
// Application master <-> FuxiMaster
// ---------------------------------------------------------------------------

// RegisterApp announces an application to FuxiMaster, carrying everything
// the scheduler must know up front: the ScheduleUnit definitions and the
// quota group. Demand follows in DemandUpdates. It is also re-sent during
// FuxiMaster failover so the new primary can rebuild soft state (paper
// Figure 7).
type RegisterApp struct {
	App        string
	QuotaGroup string
	Units      []resource.ScheduleUnit
	Seq        uint64
}

// DemandUpdate is what an application master tells FuxiMaster about its
// containers in one virtual instant: the containers it gives back (Returns,
// sent when workers exit and the application has no further use for them)
// and the incremental changes to its demand (Deltas: per-locality count
// deltas for any of its ScheduleUnits, negative for a withdrawal). The
// receiver applies the returns first — a return frees capacity before the
// demand that follows it is placed — then the deltas, walking them by
// same-unit runs (NextRun) in any grouping. An application master coalesces
// everything of one instant into one DemandUpdate, so a job that returns a
// container and asks again, however many units and machines that spans,
// costs one message. A zero count or a non-positive return makes the update
// not WellFormed, and the receiver drops it whole, as it does an update with
// a hint at a node the topology does not hold (topology.Holds).
type DemandUpdate struct {
	App     string
	Returns []ReturnEntry
	Deltas  []UnitHint
	Seq     uint64
}

// UnitHint is one unit's locality hint: a count delta in a DemandUpdate, the
// full wanted count in a FullDemandSync.
type UnitHint struct {
	UnitID int
	resource.LocalityHint
}

// ReturnEntry is one release in a DemandUpdate: count containers of the
// unit on one machine go back to FuxiMaster.
type ReturnEntry struct {
	UnitID  int
	Machine int32 // dense machine ID
	Count   int
}

// WellFormed reports whether every return gives back a positive count and
// no demand count is zero.
func (m *DemandUpdate) WellFormed() bool {
	for _, r := range m.Returns {
		if r.Count <= 0 {
			return false
		}
	}
	return noZeroCount(m.Deltas)
}

// UnitDelta is one (unit, machine, ±count) entry of a grant response,
// matching the paper's "(M1,3), (M2,4), ..., (Mn,1)" notation; negative
// counts are revocations. Machines travel as dense IDs (see the package
// doc's identifier convention).
type UnitDelta struct {
	UnitID  int
	Machine int32 // dense machine ID
	Delta   int
}

// GrantUpdate notifies an application master of one scheduling step's
// results for all of its units: grants (positive) and revocations
// (negative), grouped into per-unit runs. FuxiMaster sends at most one per
// application per step. Epoch is the sending primary's election epoch:
// receivers fence messages from a deposed master that were still in flight
// when its successor promoted. A message that carries a zero delta is not
// WellFormed, and the receiver drops it whole.
type GrantUpdate struct {
	App     string
	Changes []UnitDelta
	Epoch   int
	Seq     uint64
}

// WellFormed reports whether no delta is zero.
func (m *GrantUpdate) WellFormed() bool { return noZeroCount(m.Changes) }

// Unit returns the ScheduleUnit the hint belongs to.
func (h UnitHint) Unit() int { return h.UnitID }

func (h UnitHint) count() int { return h.Count }

// Unit returns the ScheduleUnit the entry belongs to.
func (d UnitDelta) Unit() int { return d.UnitID }

func (d UnitDelta) count() int { return d.Delta }

// UnitEntry is an entry of a payload grouped into per-unit runs.
type UnitEntry interface {
	Unit() int
	count() int
}

// NextRun splits a run-grouped payload after its first run: run holds the
// leading entries of one unit, rest what follows them. A unit may come back
// in a later run; every receiver takes each run as it comes.
func NextRun[E UnitEntry](list []E) (run, rest []E) {
	if len(list) == 0 {
		return nil, nil
	}
	j := 1
	for j < len(list) && list[j].Unit() == list[0].Unit() {
		j++
	}
	return list[:j], list[j:]
}

// noZeroCount reports whether no entry of list counts zero.
func noZeroCount[E UnitEntry](list []E) bool {
	for i := range list {
		if list[i].count() == 0 {
			return false
		}
	}
	return true
}

// FullDemandSync is the periodic full-state safety message from an
// application master: the complete current demand and held grants. The
// receiver reconciles its view to match exactly — unless grants it sent are
// still in flight toward the app (SeenGrantSeq below the master's last sent
// grant sequence), in which case the demand/held views are stale snapshots
// and reconciling against them would re-raise demand the in-flight grants
// already consumed; such syncs are skipped and the next one reconciles.
//
// Both payloads are flat lists sorted by unit ID, so the receiver reconciles
// them in one pass beside its own ID-sorted units; a unit with nothing
// outstanding (held) has no run in Demand (Held). A sync that breaks the
// order, repeats a (unit, level, node) or (unit, machine) target or carries
// a negative count is not WellFormed, and the receiver drops it whole.
type FullDemandSync struct {
	App        string
	QuotaGroup string
	Units      []resource.ScheduleUnit
	// SeenGrantSeq is the highest GrantUpdate sequence number the app has
	// observed from the current primary (0 before the first grant).
	SeenGrantSeq uint64
	// Demand lists the full (not delta) per-locality wanted counts, strictly
	// ascending by (unit, level, node).
	Demand []UnitHint
	// Held is the application's view of current grants, strictly ascending
	// by (unit, machine).
	Held []SyncHeld
	Seq  uint64
}

// SyncHeld is the container count one unit holds on one machine in a
// FullDemandSync.
type SyncHeld struct {
	UnitID  int
	Machine int32 // dense machine ID
	Count   int
}

// WellFormed reports whether the sync keeps the shape its receiver merges
// by: demand entries strictly ascending by (unit, level, node), held entries
// strictly ascending by (unit, machine), and no negative count in either.
func (m *FullDemandSync) WellFormed() bool {
	for i, h := range m.Demand {
		if h.Count < 0 {
			return false
		}
		if i > 0 {
			p := m.Demand[i-1]
			if h.UnitID < p.UnitID || h.UnitID == p.UnitID && resource.CompareHints(h.LocalityHint, p.LocalityHint) <= 0 {
				return false
			}
		}
	}
	for i, h := range m.Held {
		if h.Count < 0 {
			return false
		}
		if i > 0 {
			p := m.Held[i-1]
			if h.UnitID < p.UnitID || h.UnitID == p.UnitID && h.Machine <= p.Machine {
				return false
			}
		}
	}
	return true
}

// UnregisterApp releases everything the application holds. The sender
// re-sends it (bounded, and immediately on a successor's MasterHello) until
// an UnregisterAck lands: an unregister lost with a crashing primary would
// otherwise strand the job's capacity forever — the successor rebuilds the
// grants from agent allocation anchors with nobody left alive to release
// them.
type UnregisterApp struct {
	App string
	Seq uint64
}

// UnregisterAck confirms an UnregisterApp was applied (idempotently: a
// duplicate unregister of an already-removed app is re-acknowledged).
type UnregisterAck struct {
	App   string
	Epoch int
	Seq   uint64
}

// ---------------------------------------------------------------------------
// FuxiAgent <-> FuxiMaster
// ---------------------------------------------------------------------------

// AgentHeartbeat reports a node's health and, periodically, its
// per-application allocations: most beats carry only liveness and the health
// score (Full false, no entries), and periodic anchor beats (plus the reply
// to a MasterHello and the first beat after a restart) carry the complete
// Allocations table with Full true. The anchor is what the failover master
// uses to rebuild the free pool ("each FuxiAgent re-sends the resource
// allocation on this machine for each application master"), and the only
// beat whose allocations anyone reads; the bare beats keep the steady-state
// beat allocation-free at 5,000 machines.
type AgentHeartbeat struct {
	Machine int32 // dense machine ID
	// Full marks an anchor beat: Allocations is the complete table and a
	// recovering master may restore from it. Non-anchor beats leave
	// Allocations empty.
	Full bool
	// Allocations is the complete table, one entry per (App, UnitID) with a
	// positive count, in no particular order — anchor beats only.
	Allocations []AllocDelta
	// HealthScore in [0,100]; derived from the agent's plugin collectors
	// (disk statistics, machine load, network I/O). 100 is healthy.
	HealthScore int
	Seq         uint64
}

// AllocDelta is one allocation entry in a heartbeat: the absolute container
// count held for (App, UnitID).
type AllocDelta struct {
	App    int32 // the application master's transport endpoint ID
	UnitID int
	Count  int
}

// CapacityDelta carries one scheduling step's capacity changes for a single
// agent as a batch of signed per-(app, unit) deltas. A wide round that grants
// and revokes many containers on a machine costs the agent one message (and
// one dedup observation) instead of one per decision; the periodic
// CapacitySync anchor repairs any divergence.
type CapacityDelta struct {
	// Entries hold signed container-count deltas in Count.
	Entries []CapacityEntry
	// Epoch fences deltas from a deposed primary (see GrantUpdate.Epoch).
	Epoch int
	Seq   uint64
}

// MasterHello is broadcast by a newly-promoted primary FuxiMaster asking all
// agents and application masters to re-send their state (failover soft-state
// collection).
type MasterHello struct {
	Epoch int
	Seq   uint64
}

// CapacityQuery is sent by a restarting FuxiAgent to FuxiMaster to re-learn
// "the full granted resource amount from FuxiMaster for each application"
// (paper §4.3.1, FuxiAgent failover). Repair marks a gap-repair query from a
// running agent that detected a lost CapacityDelta — unlike a restart query
// it is no evidence of a machine flap, so the master answers it without
// scoring the machine's health.
type CapacityQuery struct {
	Machine int32 // dense machine ID
	Repair  bool
	Seq     uint64
}

// CapacityEntry is one capacity record: absolute in a CapacitySync, a signed
// change in a CapacityDelta.
type CapacityEntry struct {
	App    int32 // the application master's transport endpoint ID
	UnitID int
	Size   resource.Vector
	Count  int
}

// CapacitySync answers a CapacityQuery with the machine's full granted
// capacity table.
type CapacitySync struct {
	Machine int32 // dense machine ID
	Entries []CapacityEntry
	// Epoch fences syncs from a deposed primary (see GrantUpdate.Epoch).
	Epoch int
	Seq   uint64
}

// WireSize implements transport.Sizer.
func (m CapacitySync) WireSize() int {
	return headerBytes + 4 + len(m.Entries)*unitBytes
}

// ---------------------------------------------------------------------------
// Submission gateway <-> FuxiMaster
// ---------------------------------------------------------------------------

// JobAdmit hands one job the submission gateway dequeued over to the
// primary FuxiMaster — the paper's "job submission" step (§3.1 step 1)
// fronted by multi-tenant admission control. The message is idempotent by
// job, that is by Row plus JobID: the gateway re-sends it until an ack lands
// (the first attempt may have died with a deposed primary), and the master
// answers every copy, so admission survives master failover without being
// applied twice — the gateway's job state machine fires the registration
// exactly once.
type JobAdmit struct {
	JobID string
	// Row is the job's row in the gateway, which the ack echoes so the
	// gateway finds the job without looking its ID up.
	Row    int32
	Tenant string
	// Class is the gateway priority class (0 service, 1 batch); QuotaGroup
	// is the scheduler quota group the tenant maps onto.
	Class      uint8
	QuotaGroup string
	Seq        uint64
}

// JobAdmitAck confirms a JobAdmit: JobID and Row are the admit's. Epoch
// carries the answering primary's election epoch so the gateway can observe
// successions.
type JobAdmitAck struct {
	JobID string
	Row   int32
	Epoch int
	Seq   uint64
}

// GatewayEndpoint is the transport endpoint of the multi-tenant submission
// gateway. A newly-promoted primary also sends its MasterHello here so the
// gateway replays queued-but-unacknowledged admissions immediately instead
// of waiting out a retry period.
const GatewayEndpoint = "gateway"

// BadMachineReport escalates a job-level blacklist verdict to FuxiMaster
// (paper §4.3.2: "Among different jobs, FuxiMaster will turn this machine
// into disabled mode if a same machine is marked bad by different
// JobMasters").
type BadMachineReport struct {
	App     string
	Machine int32 // dense machine ID
	Seq     uint64
}

// MasterEndpoint is the stable logical transport endpoint of the primary
// FuxiMaster; whichever hot-standby process holds the lock registers it.
const MasterEndpoint = "fuximaster"

// AgentEndpoint names the FuxiAgent endpoint for a machine.
func AgentEndpoint(machine string) string { return "agent:" + machine }

// ---------------------------------------------------------------------------
// Application master <-> FuxiAgent
// ---------------------------------------------------------------------------

// WorkPlan asks an agent to start one worker process inside a granted
// container: binary package, limits and startup parameters in the paper; we
// carry the identifiers the simulation needs. The application is the plan's
// sender, and Worker numbers the worker within it, from 1.
type WorkPlan struct {
	UnitID int
	Worker uint32
	Size   resource.Vector
	Seq    uint64
}

// StopWorker asks an agent to terminate one of the sender's workers.
type StopWorker struct {
	Worker uint32
	Seq    uint64
}

// WorkerStatus reports a worker's state to its application master, the
// receiver.
type WorkerStatus struct {
	Machine int32 // dense machine ID
	Worker  uint32
	State   WorkerState
	// FailureDetail is set for failed workers (paper: "instance failure
	// details are encapsulated in the reported status for the sake of easy
	// fault diagnosis").
	FailureDetail string
	Seq           uint64
}

// WorkerListRequest is sent by a restarting FuxiAgent to application masters
// to learn the full worker list it should be running (agent failover).
type WorkerListRequest struct {
	Machine int32 // dense machine ID
	Seq     uint64
}

// WorkerListReply answers with all workers the sending application expects
// on the machine.
type WorkerListReply struct {
	Workers []WorkPlan
	Seq     uint64
}

// WorkerState enumerates the lifecycle of a worker process.
type WorkerState int

const (
	// WorkerStarting is assigned until the process reports in.
	WorkerStarting WorkerState = iota
	// WorkerRunning processes are executing task instances.
	WorkerRunning
	// WorkerFinished workers exited cleanly.
	WorkerFinished
	// WorkerFailed workers crashed or were killed by enforcement.
	WorkerFailed
)

func (s WorkerState) String() string {
	switch s {
	case WorkerStarting:
		return "starting"
	case WorkerRunning:
		return "running"
	case WorkerFinished:
		return "finished"
	case WorkerFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// ---------------------------------------------------------------------------
// Wire sizes (approximate, for the protocol-overhead ablation)
// ---------------------------------------------------------------------------

const (
	headerBytes   = 24
	hintBytes     = 24
	unitBytes     = 48
	perEntryBytes = 16
)

// WireSize implements transport.Sizer.
func (m RegisterApp) WireSize() int {
	return headerBytes + len(m.App) + len(m.QuotaGroup) + len(m.Units)*unitBytes
}

// WireSize implements transport.Sizer.
func (m DemandUpdate) WireSize() int {
	return headerBytes + len(m.App) + len(m.Returns)*perEntryBytes + len(m.Deltas)*hintBytes
}

// WireSize implements transport.Sizer.
func (m CapacityDelta) WireSize() int {
	return headerBytes + len(m.Entries)*unitBytes
}

// WireSize implements transport.Sizer.
func (m GrantUpdate) WireSize() int {
	return headerBytes + len(m.App) + len(m.Changes)*perEntryBytes
}

// WireSize implements transport.Sizer.
func (m FullDemandSync) WireSize() int {
	return headerBytes + len(m.App) + len(m.Units)*unitBytes +
		len(m.Demand)*hintBytes + len(m.Held)*perEntryBytes
}

// WireSize implements transport.Sizer.
func (m AgentHeartbeat) WireSize() int {
	return headerBytes + 4 + len(m.Allocations)*perEntryBytes
}

// WireSize implements transport.Sizer.
func (m JobAdmit) WireSize() int {
	return headerBytes + len(m.JobID) + 4 + len(m.Tenant) + len(m.QuotaGroup) + 1
}

// WireSize implements transport.Sizer.
func (m JobAdmitAck) WireSize() int { return headerBytes + len(m.JobID) + 4 + 8 }

// WireSize implements transport.Sizer.
func (m UnregisterAck) WireSize() int { return headerBytes + len(m.App) + 8 }

// WireSize implements transport.Sizer.
func (m WorkPlan) WireSize() int { return headerBytes + 4 + 2*perEntryBytes }

// WireSize implements transport.Sizer.
func (m WorkerStatus) WireSize() int { return headerBytes + 4 + len(m.FailureDetail) }
