// Package master implements FuxiMaster: the central resource scheduler of
// the paper. The Scheduler type is the pure scheduling core — locality-tree
// based incremental scheduling (§3.3), multi-dimensional free-pool matching
// (§3.2.1), quota groups with two-level preemption (§3.4) — and the Master
// type wraps it with the network protocol, heartbeats, blacklisting,
// checkpointing and hot-standby failover (§4.3.1).
//
// Identifier discipline: the scheduling core runs entirely on dense integer
// IDs — machines and racks by their topology index, applications by a
// scheduler-assigned intern ID — with per-machine hot state (free vectors,
// down/blacklist marks, wait queues) in slices indexed by those IDs.
// The exported machine operations take a machine's topology ID, the form
// FuxiMaster calls; an application is named by string and converted once on
// entry. Three methods still take a machine name — Release and AssignOn for
// bench/'s probe, SetVirtualResource for the operator call in
// examples/service — and Decision carries names because it is consumed by
// boundary code (checkpoints, app callbacks, logs). Because machine IDs are
// the indexes of the sorted machine list, iterating IDs in order is
// identical to iterating sorted names, so the refactor preserves every
// decision stream bit-for-bit.
package master

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/dense"
	"repro/internal/ident"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Reason labels why a Decision was made, for metrics and tests.
type Reason int

const (
	// ReasonGrant is a normal allocation from the free pool.
	ReasonGrant Reason = iota
	// ReasonRevokePriority is a revocation by priority preemption.
	ReasonRevokePriority
	// ReasonRevokeQuota is a revocation by quota preemption.
	ReasonRevokeQuota
	// ReasonRevokeNodeDown is a revocation because the machine died.
	ReasonRevokeNodeDown
)

func (r Reason) String() string {
	switch r {
	case ReasonGrant:
		return "grant"
	case ReasonRevokePriority:
		return "revoke-priority"
	case ReasonRevokeQuota:
		return "revoke-quota"
	case ReasonRevokeNodeDown:
		return "revoke-nodedown"
	default:
		return "unknown"
	}
}

// Decision is one scheduling outcome: Delta > 0 grants containers of the
// app's unit on Machine; Delta < 0 revokes them. It is a boundary type
// (consumed by callbacks, tests and logs), so it carries names; AppID and
// MachineID carry the dense IDs alongside so the protocol fan-out need not
// resolve either name again. AppID is the scheduler's own, valid until the
// app unregisters: the fan-out of the step that decided reads it.
type Decision struct {
	App       string
	UnitID    int
	Machine   string
	MachineID int32
	AppID     int32
	Delta     int
	Reason    Reason
}

// Options configures a Scheduler.
type Options struct {
	// Groups maps quota-group name to its guaranteed minimum share. Apps in
	// groups may exceed the minimum while the cluster has idle resources
	// (work-conserving); preemption enforces minimums under contention.
	Groups map[string]resource.Vector
	// EnablePreemption turns on the two-level preemption of §3.4.
	EnablePreemption bool
	// Clock supplies the current virtual time for starvation aging; nil
	// pins the clock at zero (aging then has no effect).
	Clock func() sim.Time
	// AgingBoostPerSecond is the anti-starvation extension (§7 future
	// work): every waiting entry gains this many priority points per
	// second queued, so low-priority demand cannot starve behind a steady
	// stream of high-priority arrivals. 0 disables aging.
	AgingBoostPerSecond float64
}

// DefaultGroup is the quota group used when an app registers with "".
const DefaultGroup = "default"

type unitState struct {
	def resource.ScheduleUnit
	idx int32 // position in the app's unitArr (grant-index cell and wait key)
	// dirty says a grant or release touched the unit since the last audit
	// sweep; seen* are the sweep's tally of the unit's index cells, valid
	// while seenGen is the sweep's generation (audit.go). They sit beside def
	// because the sweep's machine pass reads the size and writes the tally.
	dirty     bool
	seenGen   uint32
	seenCells int32
	seenSum   int32
	// granted is the unit-major ledger: machine ID -> container count, no
	// zero rows, in machine-ID order. A unit sits on a handful of machines,
	// so the per-decision credit/debit is a scan of one cache line, and the
	// unit-major walks (unregister, held reconciliation, preemption victims)
	// read it in the sorted order they need.
	granted dense.Map[int]
	held    int
	// auditedHeld is held as the last audit sweep saw it: this unit's share
	// of its group's audited sum (audit.go).
	auditedHeld int
	// parked holds this unit's wait entries pulled out of the queues while
	// the unit is saturated (held == MaxCount with demand still queued —
	// e.g. a safety-sync repair raised demand the unit cannot absorb yet).
	// Without parking, every free-up on every machine rescans such entries
	// at the head of the cluster queue forever. releaseOn re-queues them at
	// their original seq the moment headroom reappears, so decisions are
	// identical to the never-parked walk.
	parked []*waitEntry
}

type appState struct {
	id    int32 // dense scheduler intern ID (the app's while it is registered)
	name  string
	group string
	quota *groupState // s.groups[group], resolved once: every grant and release charges it
	// unitArr holds the app's units sorted by ID, frozen at registration —
	// iterated directly by the deterministic revocation/unregister walks and
	// searched by unit (the entry pointers handed to the wait tree stay valid
	// because the slice never reallocates after registration). A one-unit app
	// — every gateway and replay job — keeps its unit in unit0, inside the
	// app's own allocation, and unitArr is a view of it; wider apps get one
	// slice for all their units.
	unitArr []unitState
	unit0   [1]unitState
	// books and waits give the units' tables — each unit's granted ledger and
	// its entry table in the locality tree — their first cells, so a wide app
	// pays a few chunks for them instead of an allocation per unit.
	books dense.Slab[int]
	waits dense.Slab[*waitEntry]
	// ep is the application master's transport endpoint ID — where its grants
	// go, and the app's identity in capacity and heartbeat messages. The
	// Master wrapper sets it at registration (transport.None in a bare
	// Scheduler).
	ep transport.EndpointID
	// lastGrantSeq/lastGrantAt identify the last GrantUpdate dispatched to
	// this app; a full-state sync carrying an older SeenGrantSeq within the
	// fence window of that send is a stale snapshot (the grant is still in
	// flight) and skips reconciliation. Beyond the window the gap means the
	// grant was LOST, and reconciling is exactly the repair the sync is for.
	lastGrantSeq uint64
	lastGrantAt  sim.Time
	// grantSeq numbers this app's GrantUpdate stream. Grants are sequenced
	// per app (and capacity deltas per agent) rather than from the master's
	// global sequencer so that a receiver's Gap verdict actually means "a
	// message to ME was lost" — under a shared sequencer every receiver saw
	// permanent artificial gaps and loss was undetectable.
	grantSeq protocol.Sequencer
	// pendRound/pendHead/pendTail thread this app's buffered DemandUpdates
	// through the Master's round buffer during one flush (valid while
	// pendRound equals the Master's round counter).
	pendRound          uint32
	pendHead, pendTail int32
	// owesSync marks a checkpointed app whose full sync (or unregister) a
	// recovering successor is still waiting for.
	owesSync bool
}

// unit returns the state of one unit ID (nil when unknown). Units are almost
// always numbered 1..n, so position id-1 is checked first; otherwise binary
// search over the frozen sorted slice for wide apps, linear scan for narrow
// ones.
func (st *appState) unit(id int) *unitState {
	arr := st.unitArr
	if i := id - 1; i >= 0 && i < len(arr) && arr[i].def.ID == id {
		return &arr[i]
	}
	if len(arr) > 8 {
		lo, hi := 0, len(arr)
		for lo < hi {
			mid := (lo + hi) / 2
			if arr[mid].def.ID < id {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(arr) && arr[lo].def.ID == id {
			return &arr[lo]
		}
		return nil
	}
	for i := range arr {
		if arr[i].def.ID == id {
			return &arr[i]
		}
	}
	return nil
}

type groupState struct {
	name  string
	min   resource.Vector
	usage resource.Vector
	// audited is Σ auditedHeld × size over the group's units: usage as the
	// audit derives it from the units' held counts, one sweep behind for the
	// units touched since (audit.go).
	audited resource.Vector
}

// Scheduler is the FuxiMaster scheduling core. It is deterministic and
// single-threaded; the Master wrapper serializes access.
type Scheduler struct {
	top   *topology.Topology
	opts  Options
	nMach int32
	nRack int32
	ids   []int32 // the dense machine IDs 0..nMach-1, in order (sweep operand)

	free   []resource.Vector // machine ID -> owned free vector
	down   []bool            // machine ID -> down
	black  []bool            // machine ID -> blacklisted
	grants grantIndex        // machine ID -> the grants on it (grantindex.go)

	// apps is the one index by name; an app's dense ID comes from appIDs
	// and files it in appByID, which the hot paths index instead.
	apps    map[string]*appState
	appIDs  ident.Slots // dense app IDs, freed at unregister
	appByID []*appState // app ID -> live state (nil after unregister)
	groups  map[string]*groupState
	tree    waitTree
	cursor  int // rotating first-fit cursor for cluster-level placement

	// Incremental headroom accounting: aggregate free capacity for the
	// cluster and per rack, maintained alongside every free-pool mutation.
	// A placement scan that cannot possibly succeed (aggregate fit count
	// zero) is rejected in O(1) instead of walking 5000 machines.
	totalFree resource.Vector
	rackFree  []resource.Vector // rack ID -> aggregate free

	// planned is everything granted (Σ held × size, the paper's FM_planned)
	// and upCap the capacity of the machines that are up (FM_total), kept as
	// running totals in the bodies that change them — credit/debit, machine
	// down/up, capacity changes — so the once-a-second utilisation samplers
	// read two vectors instead of re-summing the ledger. The audit recomputes
	// both on every full sweep.
	planned resource.Vector
	upCap   resource.Vector

	// preempted counts units revoked by quota preemption (obs time-series).
	preempted int64
	// clusterProbes counts the machines cluster-scope placement looked at.
	clusterProbes int64

	// asg is the reusable assignment walk state: binding the
	// candidate callback to a long-lived struct keeps the per-machine sweep
	// from allocating a fresh escape-to-heap closure on every free-up.
	asg assignCtx
	// seenBuf/uniqBuf are the pooled dedup scratch of assignOnIDs; touchBuf
	// is unregister's list of the machines it freed capacity on.
	seenBuf  []bool
	uniqBuf  []int32
	touchBuf []int32
	audit    auditState // what changed since the last CheckInvariants (audit.go)
}

// assignCtx carries one assignOnMachine invocation's state; fn is the
// pre-bound candidate callback (see Scheduler.assign).
type assignCtx struct {
	s       *Scheduler
	machine int32
	free    resource.Vector
	out     *[]Decision
	fn      func(*waitEntry) bool
}

// NewScheduler returns an empty scheduler over the topology with every
// machine's full capacity in the free pool.
func NewScheduler(top *topology.Topology, opts Options) *Scheduler {
	n := int32(top.Size())
	s := &Scheduler{
		top:      top,
		opts:     opts,
		nMach:    n,
		nRack:    int32(top.NumRacks()),
		ids:      make([]int32, n),
		free:     make([]resource.Vector, n),
		down:     make([]bool, n),
		black:    make([]bool, n),
		grants:   newGrantIndex(int(n)),
		apps:     make(map[string]*appState),
		groups:   make(map[string]*groupState),
		rackFree: make([]resource.Vector, top.NumRacks()),
		tree:     newLocalityTree(),
		audit:    newAuditState(int(n), top.NumRacks()),
	}
	for id := int32(0); id < n; id++ {
		s.ids[id] = id
		cap := top.MachineByID(id).Capacity
		// The free pool owns its vectors: hot-path accounting mutates them
		// in place, so they must not alias the topology's capacity maps.
		s.free[id] = cap.Clone()
		(&s.totalFree).AddScaledInPlace(cap, 1)
		(&s.upCap).AddScaledInPlace(cap, 1)
		(&s.rackFree[top.RackIDOf(id)]).AddScaledInPlace(cap, 1)
	}
	for g, min := range opts.Groups {
		s.groups[g] = &groupState{name: g, min: min}
	}
	if _, ok := s.groups[DefaultGroup]; !ok {
		s.groups[DefaultGroup] = &groupState{name: DefaultGroup}
	}
	return s
}

// RegisterApp adds an application with its ScheduleUnit definitions. The
// quota group must exist (empty means DefaultGroup).
func (s *Scheduler) RegisterApp(app, group string, units []resource.ScheduleUnit) error {
	_, err := s.registerApp(app, group, units)
	return err
}

// registerApp is RegisterApp returning the new app's state.
func (s *Scheduler) registerApp(app, group string, units []resource.ScheduleUnit) (*appState, error) {
	if app == "" {
		return nil, fmt.Errorf("master: empty app name")
	}
	if _, dup := s.apps[app]; dup {
		return nil, fmt.Errorf("master: app %q already registered", app)
	}
	if group == "" {
		group = DefaultGroup
	}
	g, ok := s.groups[group]
	if !ok {
		return nil, fmt.Errorf("master: unknown quota group %q", group)
	}
	st := &appState{name: app, group: group, quota: g, ep: transport.None}
	if len(units) <= len(st.unit0) {
		st.unitArr = st.unit0[:0]
	} else {
		st.unitArr = make([]unitState, 0, len(units))
	}
	for _, u := range units {
		if err := u.Validate(); err != nil {
			return nil, fmt.Errorf("master: app %q: %w", app, err)
		}
		for i := range st.unitArr {
			if st.unitArr[i].def.ID == u.ID {
				return nil, fmt.Errorf("master: app %q: duplicate unit %d", app, u.ID)
			}
		}
		st.unitArr = append(st.unitArr, unitState{def: u})
	}
	// Units nearly always arrive in ID order (and a one-unit app trivially
	// does): look before sorting, which compares these wide records by value.
	for i := 1; i < len(st.unitArr); i++ {
		if st.unitArr[i-1].def.ID > st.unitArr[i].def.ID {
			slices.SortFunc(st.unitArr, func(a, b unitState) int { return cmp.Compare(a.def.ID, b.def.ID) })
			break
		}
	}
	for i := range st.unitArr {
		st.unitArr[i].idx = int32(i)
	}
	st.books.Expect(len(st.unitArr))
	st.waits.Expect(len(st.unitArr))
	// The ID is taken once the registration can no longer fail, so a refused
	// one holds none.
	id := s.appIDs.Alloc()
	st.id = id
	s.apps[app] = st
	for int(id) >= len(s.appByID) {
		s.appByID = append(s.appByID, nil)
	}
	s.appByID[id] = st
	s.audit.growApps(len(s.appByID))
	return st, nil
}

// Registered reports whether the app is known.
func (s *Scheduler) Registered(app string) bool { _, ok := s.apps[app]; return ok }

// UnregisterApp removes the application, frees everything it holds and
// reassigns the freed resources to waiting applications.
func (s *Scheduler) UnregisterApp(app string) []Decision {
	st, ok := s.apps[app]
	if !ok {
		return nil
	}
	var out []Decision
	s.unregister(st, &out)
	return out
}

// unregister is UnregisterApp past the name lookup, appending into a
// caller-pooled buffer.
func (s *Scheduler) unregister(st *appState, out *[]Decision) {
	// Release and reassign in sorted order: map iteration order must not
	// decide which waiting application is offered the freed capacity first.
	// (Machine-ID order equals sorted-name order by construction.)
	touched := s.touchBuf[:0]
	for i := range st.unitArr {
		u := &st.unitArr[i]
		for _, c := range u.granted.Cells() {
			m := int32(c.Key)
			s.grants.sub(m, st.id, u.idx, c.Val)
			s.debit(st, u, m, c.Val)
			touched = append(touched, m)
		}
		u.granted.Reset()
		// Its wait entries go back to the tree's store below.
		u.parked = nil
		// The unit leaves the audit's books with what they last showed it
		// holding, as the debits above took what it held out of usage.
		(&st.quota.audited).AddScaledInPlace(u.def.Size, -int64(u.auditedHeld))
	}
	s.tree.removeApp(st.id)
	delete(s.apps, st.name)
	s.appByID[st.id] = nil
	// The ID goes to the next app registered, oldest freed first (the order
	// ident.Table would give the name): the tables indexed by it stay as long
	// as the most apps ever registered at once. Nothing orders by it (ties
	// break by name or by queue position), so the reuse moves no decision.
	s.appIDs.Free(st.id)
	s.touchBuf = touched
	s.assignOnIDsInto(touched, out)
}

// UpdateDemand applies incremental per-locality demand deltas for one unit
// (paper §3.2.2: "quantities can be either positive or negative"). Positive
// deltas are satisfied from the free pool immediately where possible and
// queued in the locality tree otherwise; negative deltas cancel queued
// demand (never granted containers, which an application returns). A hint
// at a node the topology does not hold fails the whole call, before anything
// changes.
func (s *Scheduler) UpdateDemand(app string, unitID int, hints []resource.LocalityHint) ([]Decision, error) {
	st, u, err := s.lookup(app, unitID)
	if err != nil {
		return nil, err
	}
	for _, h := range hints {
		if !s.top.Holds(h.Type, h.Node) {
			return nil, fmt.Errorf("master: app %q unit %d asks for %v, outside the topology", app, unitID, h)
		}
	}
	var out []Decision
	s.applyDemand(st, u, hints, &out)
	return out, nil
}

// applyDemand is UpdateDemand past the name lookup and the topology check,
// for the master's message path, which resolves the app from the sender's
// endpoint ID and checks each message's hints on arrival.
func (s *Scheduler) applyDemand(st *appState, u *unitState, hints []resource.LocalityHint, out *[]Decision) {
	key := waitKey{app: st.id, unit: u.idx}
	for _, h := range hints {
		if h.Count == 0 {
			continue
		}
		if h.Count < 0 {
			s.tree.add(key, u.def.Priority, h.Type, h.Node, h.Count, s.now(), st, u)
			continue
		}
		remaining := h.Count
		granted := s.placeImmediate(st, u, h.Type, h.Node, remaining, out)
		remaining -= granted
		if remaining > 0 {
			s.tree.add(key, u.def.Priority, h.Type, h.Node, remaining, s.now(), st, u)
		}
	}
	if s.opts.EnablePreemption {
		*out = append(*out, s.preemptFor(st, u)...)
	}
}

// Release gives count granted containers on machine back to the pool
// without triggering reassignment. It is the name-keyed form of
// releaseChecked, kept for bench/'s scheduler probe.
func (s *Scheduler) Release(app string, unitID int, machine string, count int) error {
	st, u, err := s.lookup(app, unitID)
	if err != nil {
		return err
	}
	id := s.top.MachineID(machine)
	if id < 0 {
		return fmt.Errorf("master: unknown machine %q", machine)
	}
	return s.releaseChecked(st, u, id, count)
}

// releaseChecked validates and applies one release. It is the building
// block of batched scheduling rounds: the master applies every release of a
// round first and reassigns the freed capacity once, via an assignment
// sweep, instead of sweeping per return.
func (s *Scheduler) releaseChecked(st *appState, u *unitState, machine int32, count int) error {
	if count <= 0 {
		return fmt.Errorf("master: non-positive return count %d", count)
	}
	if machine < 0 || machine >= s.nMach {
		return fmt.Errorf("master: app %q unit %d returns %d on unknown machine ID %d",
			st.name, u.def.ID, count, machine)
	}
	if holds := u.granted.Get(uint64(machine)); holds < count {
		return fmt.Errorf("master: app %q unit %d returns %d on %s but holds %d",
			st.name, u.def.ID, count, s.top.MachineName(machine), holds)
	}
	s.releaseOn(st, u, machine, count)
	return nil
}

// AssignOn runs the event-driven assignment pass over the given machine
// names (duplicates tolerated) and returns the decisions.
func (s *Scheduler) AssignOn(machines []string) []Decision {
	ids := make([]int32, 0, len(machines))
	for _, m := range machines {
		if id := s.top.MachineID(m); id >= 0 {
			ids = append(ids, id)
		}
	}
	return s.assignOnIDs(ids)
}

// AssignOnAll runs the assignment pass over every machine (the
// post-recovery and reconciliation full sweeps). The ID list is duplicate-
// free by construction, so the dedup pass of assignOnIDs is skipped.
func (s *Scheduler) AssignOnAll() []Decision {
	var out []Decision
	for _, m := range s.ids {
		s.assignOnMachine(m, &out)
	}
	return out
}

// MachineDown removes dead machine id from scheduling: all grants on it are
// revoked (the paper's "resource revocation is sent to JobMaster so that the
// JobMaster could migrate running instances").
func (s *Scheduler) MachineDown(id int32) []Decision {
	if s.down[id] {
		return nil
	}
	s.down[id] = true
	(&s.upCap).AddScaledInPlace(s.top.MachineByID(id).Capacity, -1)
	return s.evacuate(id)
}

// MachineUp restores recovered machine id to the pool with its full
// capacity free and schedules it. Allocations still running on it come
// back through the agent's reports, not through this call.
func (s *Scheduler) MachineUp(id int32) []Decision {
	if !s.down[id] {
		return nil
	}
	s.down[id] = false
	(&s.upCap).AddScaledInPlace(s.top.MachineByID(id).Capacity, 1)
	s.setFree(id, s.top.MachineByID(id).Capacity)
	return s.assignOnIDs([]int32{id})
}

// SetBlacklisted marks machine id unschedulable (on) or clears the mark.
// Marking keeps the work already running there; clearing schedules the
// machine at once.
func (s *Scheduler) SetBlacklisted(id int32, on bool) []Decision {
	if on {
		s.black[id] = true
		return nil
	}
	if !s.black[id] {
		return nil
	}
	s.black[id] = false
	return s.assignOnIDs([]int32{id})
}

// Blacklisted reports whether machine id is blacklisted.
func (s *Scheduler) Blacklisted(id int32) bool { return s.black[id] }

// Down reports whether machine id is marked down.
func (s *Scheduler) Down(id int32) bool { return s.down[id] }

// ---------------------------------------------------------------------------
// internals
// ---------------------------------------------------------------------------

func (s *Scheduler) lookup(app string, unitID int) (*appState, *unitState, error) {
	st, ok := s.apps[app]
	if !ok {
		return nil, nil, fmt.Errorf("master: unknown app %q", app)
	}
	u := st.unit(unitID)
	if u == nil {
		return nil, nil, fmt.Errorf("master: app %q: unknown unit %d", app, unitID)
	}
	return st, u, nil
}

func (s *Scheduler) schedulable(id int32) bool {
	return !s.down[id] && !s.black[id]
}

// now reads the configured clock (zero when none is wired).
func (s *Scheduler) now() sim.Time {
	if s.opts.Clock == nil {
		return 0
	}
	return s.opts.Clock()
}

// adjustFree applies k units of size to machine's free pool and the
// cluster/rack aggregates, allocation-free.
func (s *Scheduler) adjustFree(id int32, size resource.Vector, k int64) {
	(&s.free[id]).AddScaledInPlace(size, k)
	(&s.totalFree).AddScaledInPlace(size, k)
	(&s.rackFree[s.top.RackIDOf(id)]).AddScaledInPlace(size, k)
}

// grantOn commits k containers of u on machine and records the decision.
func (s *Scheduler) grantOn(st *appState, u *unitState, machine int32, k int, out *[]Decision) {
	s.credit(st, u, machine, k)
	*out = append(*out, Decision{App: st.name, AppID: st.id, UnitID: u.def.ID,
		Machine: s.top.MachineName(machine), MachineID: machine, Delta: k, Reason: ReasonGrant})
}

// credit is the one place a grant enters the books: free pool, unit-major
// ledger, machine-major index, held count, quota usage and the planned total
// — and the audit's dirty marks for all of them.
func (s *Scheduler) credit(st *appState, u *unitState, machine int32, k int) {
	s.audit.touch(st, u, machine)
	(&s.planned).AddScaledInPlace(u.def.Size, int64(k))
	s.adjustFree(machine, u.def.Size, -int64(k))
	// The ledger keeps no zero rows, so the unit is new to the machine
	// exactly when its row holds just this grant.
	n := u.granted.PutFrom(&st.books, uint64(machine))
	*n += k
	s.grants.add(machine, st.id, u.idx, k, *n == k)
	u.held += k
	(&st.quota.usage).AddScaledInPlace(u.def.Size, int64(k))
}

// releaseOn returns k containers of u on machine to the free pool (no
// decision emitted; callers emit revocations themselves when the release
// was not requested by the app).
func (s *Scheduler) releaseOn(st *appState, u *unitState, machine int32, k int) {
	s.grants.sub(machine, st.id, u.idx, k)
	dense.Take(&u.granted, uint64(machine), k)
	s.debit(st, u, machine, k)
}

// debit is releaseOn without the two ledger updates, for the walks that
// empty a whole table at once: evacuate the machine's cells, UnregisterApp
// the unit's rows.
func (s *Scheduler) debit(st *appState, u *unitState, machine int32, k int) {
	s.audit.touch(st, u, machine)
	(&s.planned).AddScaledInPlace(u.def.Size, -int64(k))
	if !s.down[machine] {
		s.adjustFree(machine, u.def.Size, int64(k))
	}
	u.held -= k
	(&st.quota.usage).AddScaledInPlace(u.def.Size, -int64(k))
	if len(u.parked) > 0 {
		s.unpark(u)
	}
}

// park pulls a saturated unit's entry out of the wait queues (indexed tree
// only; the tests' reference tree keeps its original rescan behaviour). The
// entry is skipped in place until compaction drops it.
func (s *Scheduler) park(e *waitEntry, u *unitState) {
	if e.parked || s.opts.AgingBoostPerSecond > 0 {
		return
	}
	if _, indexed := s.tree.(*localityTree); !indexed {
		return
	}
	noteKilled(e) // live -> parked
	e.parked = true
	u.parked = append(u.parked, e)
}

// unpark revives a unit's parked entries in place at their original seq
// positions (parked entries always remain physically queued — tombstone
// rebuilds drop only gone entries). It runs the moment a release raises
// the unit's headroom, before any walk could observe the new capacity, so
// parking never changes a decision.
func (s *Scheduler) unpark(u *unitState) {
	for _, e := range u.parked {
		if e.parked {
			e.parked = false
			if e.queued && e.count > 0 {
				noteRevived(e)
			}
		}
	}
	u.parked = u.parked[:0]
}

// headroom returns how many more containers the app may hold for this unit.
func (u *unitState) headroom() int {
	h := u.def.MaxCount - u.held
	if h < 0 {
		return 0
	}
	return h
}

// placeImmediate satisfies up to want containers for a hint targeting node
// at the given level from the free pool, appending grant decisions. It
// returns the number granted.
func (s *Scheduler) placeImmediate(st *appState, u *unitState, level resource.LocalityType, node int32, want int, out *[]Decision) int {
	if want > u.headroom() {
		want = u.headroom()
	}
	if want <= 0 {
		return 0
	}
	granted := 0
	tryMachine := func(m int32, cap int) {
		if granted >= want || !s.schedulable(m) {
			return
		}
		k := int(s.free[m].FitCount(u.def.Size))
		if k > want-granted {
			k = want - granted
		}
		if cap > 0 && k > cap {
			k = cap
		}
		if k > 0 {
			s.grantOn(st, u, m, k, out)
			granted += k
		}
	}
	switch level {
	case resource.LocalityMachine:
		tryMachine(node, 0)
	case resource.LocalityRack:
		if s.rackFree[node].FitCount(u.def.Size) == 0 {
			break // no machine in this rack can fit even one unit
		}
		for _, m := range s.top.MachineIDsInRack(node) {
			if granted >= want {
				break
			}
			tryMachine(m, 0)
		}
	case resource.LocalityCluster:
		// Cluster-level placement considers load balance (paper §3.3):
		// spread the request across machines in slices, scanning from a
		// rotating cursor so consecutive requests start at different
		// machines. perPass caps how much one machine takes per sweep.
		// Aggregate headroom prunes the scan: a saturated cluster rejects
		// in O(1) and saturated racks are skipped wholesale.
		n := int(s.nMach)
		if n == 0 {
			break
		}
		perPass := (want + n - 1) / n
		for pass := 0; pass < n && granted < want; pass++ {
			if s.totalFree.FitCount(u.def.Size) == 0 {
				break
			}
			before := granted
			for i := 0; i < n && granted < want; {
				m := int32((s.cursor + i) % n)
				s.clusterProbes++
				if s.rackFree[s.top.RackIDOf(m)].FitCount(u.def.Size) == 0 {
					// Grants only shrink a rack's aggregate, so none of the
					// rack's machines can fit for the rest of the pass: step
					// past its run of IDs at once.
					i += int(s.top.RackRunEnd(m) - m)
					continue
				}
				tryMachine(m, perPass)
				i++
			}
			if granted == before {
				break // nothing fits anywhere
			}
		}
		s.cursor = (s.cursor + 1) % n
	}
	return granted
}

// assignOnIDs reschedules freed capacity on the given machines by walking
// each machine's locality-tree candidates (paper §3.1: "when {2CPU, 10GB}
// frees up on machine A, we only need to make a decision on which
// application in machine A's waiting queue should get this resource").
func (s *Scheduler) assignOnIDs(machines []int32) []Decision {
	var out []Decision
	s.assignOnIDsInto(machines, &out)
	return out
}

// assignOnIDsInto is assignOnIDs appending into a caller-pooled buffer.
func (s *Scheduler) assignOnIDsInto(machines []int32, out *[]Decision) {
	if s.seenBuf == nil {
		s.seenBuf = make([]bool, s.nMach)
	}
	uniq := s.uniqBuf[:0]
	for _, m := range machines {
		if s.seenBuf[m] {
			continue
		}
		s.seenBuf[m] = true
		uniq = append(uniq, m)
	}
	s.uniqBuf = uniq
	for _, m := range uniq {
		s.seenBuf[m] = false
	}
	for _, m := range uniq {
		s.assignOnMachine(m, out)
	}
}

func (s *Scheduler) assignOnMachine(machine int32, out *[]Decision) {
	if !s.schedulable(machine) {
		return
	}
	free := s.free[machine]
	if free.IsZero() {
		return
	}
	if cpu, mem := s.tree.minFit(); free.CPUMilli() < cpu || free.MemoryMB() < mem {
		return // fragment provably below every queued entry's size
	}
	rack := s.top.RackIDOf(machine)
	// One pass suffices: a grant only ever shrinks the free vector, unit
	// headrooms and waiting counts, so no entry skipped in this pass could
	// become satisfiable later in it. The stream stops the moment the
	// freed capacity is exhausted, and the tree prunes whole size classes
	// against the current remainder as it shrinks. The walk state and its
	// callback live in the scheduler's reusable assignCtx (the scheduler is
	// single-threaded), so a sweep over thousands of machines allocates no
	// per-machine closures.
	c := &s.asg
	if c.fn == nil {
		c.s = s
		c.fn = c.candidate
	}
	c.machine = machine
	c.free = free
	c.out = out
	s.tree.forEachCandidate(machine, rack, s.now(), s.opts.AgingBoostPerSecond, &c.free, c.fn)
	c.out = nil
}

// candidate is the assignment walk body: offer the freed capacity on
// ctx.machine to one queued entry.
func (c *assignCtx) candidate(e *waitEntry) bool {
	s := c.s
	if e.count <= 0 {
		return true
	}
	// Resolve (app, unit) once per entry, not once per free-up: live
	// entries are removed from the queues before their app
	// unregisters, so the cached pointers cannot go stale.
	st, u := e.st, e.u
	if u == nil {
		st = s.appStateByID(e.key.app)
		if st == nil {
			return true
		}
		if int(e.key.unit) >= len(st.unitArr) {
			return true
		}
		u = &st.unitArr[e.key.unit]
		e.st, e.u = st, u
	}
	want := e.count
	if hr := u.headroom(); want > hr {
		want = hr
	}
	if want <= 0 {
		// The unit is saturated (held == MaxCount) yet still has queued
		// demand — legal, but no free-up can serve it until a release
		// raises the headroom. Park the entry so subsequent sweeps stop
		// rescanning it; releaseOn re-queues it at its original position.
		s.park(e, u)
		return true
	}
	k := int(c.free.FitCount(u.def.Size))
	if k > want {
		k = want
	}
	if k <= 0 {
		return true
	}
	s.grantOn(st, u, c.machine, k, c.out)
	c.free = s.free[c.machine]
	e.count -= k
	if e.count == 0 {
		noteKilled(e) // satisfied in place; lazily dropped or revived
	}
	return !c.free.IsZero() // machine exhausted: no candidate can fit
}

// appStateByID resolves a dense app ID to its live state (nil when gone).
func (s *Scheduler) appStateByID(id int32) *appState {
	if int(id) >= len(s.appByID) {
		return nil
	}
	return s.appByID[id]
}

// evacuate revokes every grant on down machine and empties its free pool
// entry; rescheduling the demand elsewhere is left to the apps (they
// re-request).
func (s *Scheduler) evacuate(machine int32) []Decision {
	var out []Decision
	name := s.top.MachineName(machine)
	cells := s.cellsInOrder(machine)
	s.grants.cells[machine] = cells[:0]
	for _, c := range cells {
		st := s.appByID[c.app]
		u := &st.unitArr[c.unit]
		dense.Take(&u.granted, uint64(machine), int(c.n))
		s.debit(st, u, machine, int(c.n))
		out = append(out, Decision{App: st.name, AppID: st.id, UnitID: u.def.ID,
			Machine: name, MachineID: machine, Delta: -int(c.n), Reason: ReasonRevokeNodeDown})
	}
	s.setFree(machine, resource.Vector{})
	return out
}

// setFree replaces machine's free-pool entry with an owned copy of v,
// keeping the cluster and rack aggregates consistent.
func (s *Scheduler) setFree(machine int32, v resource.Vector) {
	s.audit.touchMachine(machine)
	old := s.free[machine]
	(&s.totalFree).AddScaledInPlace(old, -1)
	rack := s.top.RackIDOf(machine)
	(&s.rackFree[rack]).AddScaledInPlace(old, -1)
	(&s.rackFree[rack]).AddScaledInPlace(v, 1)
	(&s.totalFree).AddScaledInPlace(v, 1)
	s.free[machine] = v.Clone()
}
