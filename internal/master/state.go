package master

import (
	"sort"

	"repro/internal/dense"
	"repro/internal/resource"
)

// Inspection and state-transfer methods used by metrics, tests, and the
// failover path. They name applications by string and return copies,
// converting from the ID-indexed hot state on the way out.

// TotalCapacity is the capacity of the machines that are up (the paper's
// FM_total), a running total (a copy).
func (s *Scheduler) TotalCapacity() resource.Vector { return s.upCap.Clone() }

// PlannedTotal is all granted resources (the paper's FM_planned: "the total
// amount of assigned resources to all application masters"), a running
// total (a copy).
func (s *Scheduler) PlannedTotal() resource.Vector { return s.planned.Clone() }

// Granted returns the app's current per-machine container counts for a
// unit, keyed by machine name (a copy).
func (s *Scheduler) Granted(app string, unitID int) map[string]int {
	st, ok := s.apps[app]
	if !ok {
		return nil
	}
	u := st.unit(unitID)
	if u == nil {
		return nil
	}
	out := make(map[string]int, u.granted.Len())
	for _, c := range u.granted.Cells() {
		out[s.top.MachineName(int32(c.Key))] = c.Val
	}
	return out
}

// GrantedCells returns the app's grant ledger for a unit as (machine ID,
// count) rows in machine order — what the recovery-time readers merge against
// an application master's ledger without building a copy. The slice is the
// ledger itself: read it, do not keep or modify it.
func (s *Scheduler) GrantedCells(app string, unitID int) []dense.Cell[int] {
	if st, ok := s.apps[app]; ok {
		if u := st.unit(unitID); u != nil {
			return u.granted.Cells()
		}
	}
	return nil
}

// GrantedOn returns the container count granted to (app, unit) on one
// machine without copying the ledger.
func (s *Scheduler) GrantedOn(app string, unitID int, machine int32) int {
	if st, ok := s.apps[app]; ok {
		if u := st.unit(unitID); u != nil {
			return u.granted.Get(uint64(machine))
		}
	}
	return 0
}

// Held returns the total containers held by app for a unit.
func (s *Scheduler) Held(app string, unitID int) int {
	if st, ok := s.apps[app]; ok {
		if u := st.unit(unitID); u != nil {
			return u.held
		}
	}
	return 0
}

// Waiting returns the tree's total queued count for (app, unit).
func (s *Scheduler) Waiting(app string, unitID int) int {
	st, ok := s.apps[app]
	if !ok {
		return 0
	}
	u := st.unit(unitID)
	if u == nil {
		return 0
	}
	return s.tree.totalWaiting(waitKey{app: st.id, unit: u.idx})
}

// GroupUsage returns a quota group's current usage vector (a copy).
func (s *Scheduler) GroupUsage(group string) resource.Vector {
	if g, ok := s.groups[group]; ok {
		return g.usage.Clone()
	}
	return resource.Vector{}
}

// Apps returns the sorted registered application names.
func (s *Scheduler) Apps() []string {
	out := make([]string, 0, len(s.apps))
	for app := range s.apps {
		out = append(out, app)
	}
	sort.Strings(out)
	return out
}

// appSlots returns the length of the scheduler's tables indexed by app ID —
// the intern table, the app table and the locality tree's per-app rows —
// whichever is longest: the most apps ever registered at once.
func (s *Scheduler) appSlots() int {
	n := max(s.appIDs.Len(), len(s.appByID))
	if t, ok := s.tree.(*localityTree); ok {
		n = max(n, len(t.byApp))
	}
	return n
}

// Units returns the app's ScheduleUnit definitions sorted by ID.
func (s *Scheduler) Units(app string) []resource.ScheduleUnit {
	st, ok := s.apps[app]
	if !ok {
		return nil
	}
	out := make([]resource.ScheduleUnit, 0, len(st.unitArr))
	for i := range st.unitArr {
		out = append(out, st.unitArr[i].def)
	}
	return out
}

// restoreGrant force-installs a grant without emitting decisions — the
// failover path rebuilds soft state with it from FuxiAgent allocation
// reports ("each FuxiAgent re-sends the resource allocation on this machine
// for each application master", Figure 7), fed straight from anchor
// heartbeats. An unknown unit is ignored: its agents' processes are
// reconciled once the app re-registers.
func (s *Scheduler) restoreGrant(st *appState, unitID int, machine int32, count int) bool {
	u := st.unit(unitID)
	if u == nil || count <= 0 {
		return false
	}
	s.credit(st, u, machine, count)
	return true
}

// SetVirtualResource changes the amount of a named virtual resource on one
// machine (paper §3.2.1: "The total virtual resource on each node can be
// changed at any time"). Raising it may immediately satisfy queued demand;
// lowering it never revokes running work — the dimension simply stays
// oversubscribed until containers return. The returned decisions are any
// new grants.
func (s *Scheduler) SetVirtualResource(machine, dim string, amount int64) []Decision {
	id := s.top.MachineID(machine)
	if id < 0 || dim == resource.CPU || dim == resource.Memory {
		return nil
	}
	m := s.top.MachineByID(id)
	old := m.Capacity.Get(dim)
	m.Capacity = m.Capacity.With(dim, amount)
	s.audit.touchMachine(id)
	if s.down[id] {
		return nil // a down machine has no free pool; MachineUp restores it from Capacity
	}
	// The free pool moves by the capacity delta; it may go negative on the
	// virtual dimension (oversubscription), which only blocks further
	// grants.
	delta := resource.FromMap(map[string]int64{dim: amount - old})
	s.adjustFree(id, delta, 1)
	(&s.upCap).AddScaledInPlace(delta, 1)
	if amount > old && s.schedulable(id) {
		return s.assignOnIDs([]int32{id})
	}
	return nil
}

// Preemptions returns the cumulative count of resource units revoked by the
// two-level quota preemption path since the scheduler was built. The obs
// sampler differences successive reads to derive a per-round preemption rate.
func (s *Scheduler) Preemptions() int64 { return s.preempted }

// ForEachRackFree visits every rack's aggregate free vector by dense rack
// ID. The callback receives the scheduler-owned vector; callers must not
// retain or mutate it. Alloc-free — it sits on the per-round obs record
// path.
func (s *Scheduler) ForEachRackFree(fn func(rack int32, free resource.Vector)) {
	for rack := int32(0); rack < s.nRack; rack++ {
		fn(rack, s.rackFree[rack])
	}
}

// ClusterQueueDepths visits the cluster-level waiting queue grouped by size
// class: fn receives the class shape (CPU milli, memory MB, opaque for
// virtual-dimension units) and the number of live waiting (app, unit)
// entries of that shape. Only classes with live demand are reported. The
// walk reads only the buckets whose summary counts live entries, is
// alloc-free, and a no-op on non-locality tree implementations.
func (s *Scheduler) ClusterQueueDepths(fn func(cpuMilli, memMB int64, opaque bool, depth int)) {
	t, ok := s.tree.(*localityTree)
	if !ok {
		return
	}
	for i := range t.cq.slots {
		if t.cq.slots[i].live == 0 {
			continue
		}
		for _, c := range t.cq.slots[i].b.classes {
			if c.nLive > 0 {
				fn(c.cpu, c.mem, c.opaque, c.nLive)
			}
		}
	}
}
