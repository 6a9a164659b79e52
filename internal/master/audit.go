package master

import (
	"fmt"
	"math/bits"

	"repro/internal/resource"
)

// The scheduler audit. CheckInvariants runs once a virtual second inside
// measured windows, so it costs what changed since it last ran, not what
// exists: the bodies that change the books — credit and debit, setFree,
// machine down/up, capacity changes — mark the (app, unit) and machine they
// touch, and a sweep audits the marked entities and clears the marks (quota
// groups are few: every sweep compares each against a sum the unit audits
// keep current). A mark is one flag or bit, so the memory is fixed however
// long nobody sweeps. A scheduler is born with everything marked (a promoted
// master's rebuilt ledger gets a full audit first), stays that way until its
// first sweep — a run with no checker attached pays one predicted branch per
// mark — and every auditFullEvery-th sweep marks everything again. A sweep
// over everything is the full audit, on the same code; only then are the
// running totals recomputed from scratch, a plain sweep checks them against
// each other.
//
// Whatever a plain sweep finds, the report comes from a sweep over
// everything: a violation's strings do not depend on which marks happened to
// be set when it was noticed.

// auditFullEvery is how often a periodic sweep audits everything, marked or
// not: corruption that arrived without a mark (a bug in the marking itself)
// surfaces within this many virtual seconds.
const auditFullEvery = 16

// bitset is a set of dense IDs, a bit each.
type bitset []uint64

func (b bitset) set(i int32)      { b[i>>6] |= 1 << (i & 63) }
func (b bitset) has(i int32) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// each calls fn for every member, in ID order.
func (b bitset) each(fn func(i int32)) {
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			fn(int32(w*64 + bits.TrailingZeros64(word)))
		}
	}
}

// auditState is the dirty set and the sweep's working memory.
type auditState struct {
	all    bool   // everything is marked: touch is a no-op, the next sweep walks it all
	sweeps int    // CheckInvariants calls so far
	gen    uint32 // current sweep, for unitState.seenGen
	mach   bitset // marked machines
	apps   bitset // apps (by dense ID) with a marked unit
	racks  []bool // sweep scratch: racks holding a marked machine
}

func newAuditState(machines, racks int) auditState {
	return auditState{all: true, mach: make(bitset, (machines+63)/64), racks: make([]bool, racks)}
}

// growApps sizes the app set for n dense app IDs (RegisterApp, beside the
// growth of appByID).
func (a *auditState) growApps(n int) {
	for len(a.apps)*64 < n {
		a.apps = append(a.apps, 0)
	}
}

// touch marks one grant or release: the unit and the machine it sits on.
// (The group it is charged to needs no mark: groups are few, and a sweep
// compares them all.)
func (a *auditState) touch(st *appState, u *unitState, machine int32) {
	if a.all {
		return
	}
	u.dirty = true
	a.apps.set(st.id)
	a.mach.set(machine)
}

// touchMachine marks a machine whose free pool, capacity or up/down state
// changed.
func (a *auditState) touchMachine(machine int32) {
	if !a.all {
		a.mach.set(machine)
	}
}

// CheckInvariants verifies internal consistency of everything that changed
// since the previous call (everything there is, on a scheduler's first call
// and every auditFullEvery-th after it); tests and the cluster-wide invariant
// checker call it after scenario steps. It returns a non-nil slice of
// descriptions when any invariant is violated.
func (s *Scheduler) CheckInvariants() []string {
	a := &s.audit
	if a.sweeps%auditFullEvery == 0 {
		a.all = true
	}
	a.sweeps++
	bad := s.sweep()
	if len(bad) > 0 {
		bad = s.CheckAllInvariants()
	}
	return bad
}

// CheckAllInvariants audits everything, marked or not: the end of a run, a
// settled point, a test that wrote to the books behind the scheduler's back.
func (s *Scheduler) CheckAllInvariants() []string {
	s.audit.all = true
	return s.sweep()
}

// sweep audits the marked entities — all of them when audit.all — and clears
// the marks. Marked machines first: each cell must be in its unit's ledger
// with the same count (with the unit pass below: index ≡ transpose of the
// ledgers), the cells give the machine's usage, and they are tallied into
// their units. Then marked units, the groups, and the totals.
func (s *Scheduler) sweep() []string {
	a := &s.audit
	all := a.all
	a.all = false
	a.gen++
	var bad []string

	// Machines, by rack: a rack's aggregate is re-summed when any of its
	// machines is marked, and the cluster's from the racks.
	if !all {
		a.mach.each(func(id int32) { a.racks[s.top.RackIDOf(id)] = true })
	}
	var sumFree, sumCap resource.Vector
	for rack := int32(0); rack < s.nRack; rack++ {
		if !all && !a.racks[rack] {
			(&sumFree).AddScaledInPlace(s.rackFree[rack], 1)
			continue
		}
		a.racks[rack] = false
		var rackSum resource.Vector
		for _, id := range s.top.MachineIDsInRack(rack) {
			(&rackSum).AddScaledInPlace(s.free[id], 1)
			if all && !s.down[id] {
				(&sumCap).AddScaledInPlace(s.top.MachineByID(id).Capacity, 1)
			}
			if all || a.mach.has(id) {
				s.auditMachine(id, all, &bad)
			}
		}
		if !rackSum.Equal(s.rackFree[rack]) {
			bad = append(bad, "rack "+s.top.RackName(rack)+" aggregate free "+s.rackFree[rack].String()+" != sum "+rackSum.String())
		}
		(&sumFree).AddScaledInPlace(rackSum, 1)
	}
	if !sumFree.Equal(s.totalFree) {
		bad = append(bad, "cluster aggregate free "+s.totalFree.String()+" != sum "+sumFree.String())
	}

	// Units: the cells tallied above, plus one assumed behind every ledger row
	// on an unmarked machine (nothing there changed since it was audited),
	// must match the ledger row for row and sum to held. Each audited unit
	// also brings its group's audited sum up to date with its held count; a
	// full sweep rebuilds those sums from nothing.
	if all {
		for _, g := range s.groups {
			g.audited = resource.Vector{}
		}
		for _, st := range s.appByID {
			if st != nil {
				s.auditApp(st, true, &bad)
			}
		}
	} else {
		a.apps.each(func(id int32) {
			if st := s.appByID[id]; st != nil {
				s.auditApp(st, false, &bad)
			}
		})
	}
	clear(a.apps)
	clear(a.mach) // the unit pass above still asked which machines were marked

	// Group usage equals the sum of member grants, and the planned total the
	// sum over groups: every grant is charged to exactly one. Groups are few,
	// so all are compared on every sweep.
	var sumPlanned resource.Vector
	for _, g := range s.groups {
		(&sumPlanned).AddScaledInPlace(g.audited, 1)
		if !g.audited.Equal(g.usage) {
			bad = append(bad, "group "+g.name+": usage mismatch "+g.usage.String()+" != "+g.audited.String())
		}
	}
	if !all {
		// Up capacity is re-summed on a full sweep only; otherwise it is held
		// against its neighbours: what is up is either free or granted.
		sumCap = s.totalFree.Add(s.planned)
	}
	if !sumPlanned.Equal(s.planned) {
		bad = append(bad, "cluster planned total "+s.planned.String()+" != sum "+sumPlanned.String())
	}
	if !sumCap.Equal(s.upCap) {
		bad = append(bad, "cluster up capacity "+s.upCap.String()+" != sum "+sumCap.String())
	}
	return bad
}

// auditMachine checks one machine's cells against the ledgers, tallies them
// into their units, and checks free + granted == capacity.
func (s *Scheduler) auditMachine(id int32, all bool, bad *[]string) {
	gen := s.audit.gen
	var used resource.Vector
	for _, c := range s.grants.cells[id] {
		st := s.appStateByID(c.app)
		if st == nil || int(c.unit) >= len(st.unitArr) {
			*bad = append(*bad, "index: machine "+s.top.MachineName(id)+": cell of an unregistered app or unit")
			continue
		}
		u := &st.unitArr[c.unit]
		// Nothing has touched an unmarked unit's cells since they were last
		// compared; its ledger is not worth a cache miss.
		if c.n <= 0 || (all || u.dirty) && u.granted.Get(uint64(id)) != int(c.n) {
			*bad = append(*bad, fmt.Sprintf("index: machine %s app %s unit %d: index holds %d, ledger %d",
				s.top.MachineName(id), st.name, u.def.ID, c.n, u.granted.Get(uint64(id))))
		}
		if u.seenGen != gen {
			u.seenGen, u.seenCells, u.seenSum = gen, 0, 0
		}
		u.seenCells++
		u.seenSum += c.n
		(&used).AddScaledInPlace(u.def.Size, int64(c.n))
	}
	if s.down[id] {
		return
	}
	name := s.top.MachineName(id)
	cap := s.top.MachineByID(id).Capacity
	if !s.free[id].Add(used).Equal(cap) {
		*bad = append(*bad, "machine "+name+": free+used != capacity: "+s.free[id].String()+" + "+used.String()+" != "+cap.String())
	}
	if s.free[id].CPUMilli() < 0 || s.free[id].MemoryMB() < 0 {
		// Physical dimensions may never go negative; virtual ones may
		// (administratively lowering a virtual resource below current
		// usage leaves the dimension oversubscribed by design).
		*bad = append(*bad, "machine "+name+": negative physical free "+s.free[id].String())
	}
}

// auditApp audits the app's marked units (all of them on a full sweep).
func (s *Scheduler) auditApp(st *appState, all bool, bad *[]string) {
	for ui := range st.unitArr {
		u := &st.unitArr[ui]
		if all {
			u.auditedHeld = 0 // the group sums were zeroed
		} else if !u.dirty {
			continue
		}
		u.dirty = false
		s.auditUnit(st, u, all, bad)
		(&st.quota.audited).AddScaledInPlace(u.def.Size, int64(u.held-u.auditedHeld))
		u.auditedHeld = u.held
	}
}

// auditUnit checks one unit's ledger against the cells the machine pass
// tallied for it.
func (s *Scheduler) auditUnit(st *appState, u *unitState, all bool, bad *[]string) {
	cells, sum := 0, 0
	if u.seenGen == s.audit.gen {
		cells, sum = int(u.seenCells), int(u.seenSum)
	}
	if !all {
		a := &s.audit
		for _, row := range u.granted.Cells() {
			if !a.mach.has(int32(row.Key)) {
				cells++
				sum += row.Val
			}
		}
	}
	if cells != u.granted.Len() {
		*bad = append(*bad, fmt.Sprintf("index: app %s unit %d: %d cells, ledger has %d machines",
			st.name, u.def.ID, cells, u.granted.Len()))
	}
	if sum != u.held {
		*bad = append(*bad, "app "+st.name+": unit held mismatch")
	}
	if u.held > u.def.MaxCount {
		*bad = append(*bad, "app "+st.name+": unit over MaxCount")
	}
}
