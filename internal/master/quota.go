package master

import (
	"sort"

	"repro/internal/resource"
)

// preemptFor implements the two-level preemption of paper §3.4 for an
// application with unsatisfied queued demand:
//
//  1. Priority preemption: within the requester's quota group, grants held
//     by strictly lower-priority units are revoked to make space.
//  2. Quota preemption: when the requester's group is below its guaranteed
//     minimum, grants are revoked from groups exceeding their minimums.
//
// Revocations free resources which are then immediately re-assigned through
// the normal locality-tree path, so the requester (being the
// highest-priority waiter) receives them.
func (s *Scheduler) preemptFor(st *appState, u *unitState) []Decision {
	deficit := s.deficit(st, u)
	if deficit <= 0 {
		return nil
	}
	var out []Decision
	out = append(out, s.preemptPriority(st, u, deficit)...)
	if deficit = s.deficit(st, u); deficit > 0 {
		out = append(out, s.preemptQuota(st, u, deficit)...)
	}
	return out
}

// deficit is the number of containers of u still queued in the tree,
// capped by the unit's remaining headroom.
func (s *Scheduler) deficit(st *appState, u *unitState) int {
	key := waitKey{app: st.id, unit: u.idx}
	d := s.tree.totalWaiting(key)
	if hr := u.headroom(); d > hr {
		d = hr
	}
	return d
}

// QuotaDeficits reports quota-minimum violations at a settled point: with
// preemption enabled, no group may sit below its guaranteed minimum with
// queued demand it could claim within the minimum while preemptible grants
// exist in other groups — preemptFor should already have fired. The
// cluster-wide invariant checker calls this after recovery settles to verify
// that failover did not silently strand a group below its guarantee.
func (s *Scheduler) QuotaDeficits() []string {
	if !s.opts.EnablePreemption {
		return nil
	}
	var bad []string
	appNames := make([]string, 0, len(s.apps))
	for name := range s.apps {
		appNames = append(appNames, name)
	}
	sort.Strings(appNames)
	for _, name := range appNames {
		st := s.apps[name]
		g := s.groups[st.group]
		if g.min.IsZero() {
			continue // no guaranteed minimum
		}
		for ui := range st.unitArr {
			u := &st.unitArr[ui]
			if s.deficit(st, u) <= 0 {
				continue
			}
			if g.min.Sub(g.usage).FitCount(u.def.Size) <= 0 {
				continue // claim would exceed the minimum: not guaranteed
			}
			victims := s.collectVictims(func(vapp *appState, vu *unitState) bool {
				if vapp.group == st.group {
					return false
				}
				vg := s.groups[vapp.group]
				return !vg.min.Contains(vg.usage) || vg.min.IsZero() && !vg.usage.IsZero()
			})
			if len(victims) > 0 {
				bad = append(bad, "group "+st.group+": below minimum with queued demand for app "+
					name+" while preemptible grants exist")
			}
		}
	}
	return bad
}

// victimGrant identifies one preemptible holding.
type victimGrant struct {
	app      *appState
	unit     *unitState
	machine  int32
	count    int
	priority int
}

// preemptPriority revokes up to deficit containers from lower-priority
// units in the same quota group, lowest priority first.
func (s *Scheduler) preemptPriority(st *appState, u *unitState, deficit int) []Decision {
	victims := s.collectVictims(func(vapp *appState, vu *unitState) bool {
		return vapp.group == st.group && vapp.name != st.name && vu.def.Priority > u.def.Priority
	})
	return s.revokeAndReassign(victims, u.def.Size, deficit, ReasonRevokePriority)
}

// preemptQuota revokes from over-quota groups when the requester's group is
// under its guaranteed minimum. The amount preempted never drags the
// requester's group above its minimum ("a minimal quota for each group will
// be ensured" — the guarantee, not unbounded priority).
func (s *Scheduler) preemptQuota(st *appState, u *unitState, deficit int) []Decision {
	g := s.groups[st.group]
	if g.min.IsZero() {
		return nil // group has no guaranteed minimum
	}
	// Containers of u the group may still claim within its minimum.
	claim := g.min.Sub(g.usage).FitCount(u.def.Size)
	if claim <= 0 {
		return nil
	}
	if int(claim) < deficit {
		deficit = int(claim)
	}
	victims := s.collectVictims(func(vapp *appState, vu *unitState) bool {
		if vapp.group == st.group {
			return false
		}
		vg := s.groups[vapp.group]
		// Only groups strictly above their own minimum are preemptible.
		return !vg.min.Contains(vg.usage) || vg.min.IsZero() && !vg.usage.IsZero()
	})
	return s.revokeAndReassign(victims, u.def.Size, deficit, ReasonRevokeQuota)
}

// collectVictims gathers preemptible grants matching the filter, sorted so
// the lowest-priority (largest numeric), most recently favoured holdings go
// first, with deterministic tie-breaks.
func (s *Scheduler) collectVictims(match func(*appState, *unitState) bool) []victimGrant {
	var victims []victimGrant
	appNames := make([]string, 0, len(s.apps))
	for name := range s.apps {
		appNames = append(appNames, name)
	}
	sort.Strings(appNames)
	for _, name := range appNames {
		vapp := s.apps[name]
		for ui := range vapp.unitArr {
			vu := &vapp.unitArr[ui]
			if !match(vapp, vu) {
				continue
			}
			for _, c := range vu.granted.Cells() {
				victims = append(victims, victimGrant{
					app: vapp, unit: vu, machine: int32(c.Key),
					count: c.Val, priority: vu.def.Priority,
				})
			}
		}
	}
	sort.SliceStable(victims, func(i, j int) bool {
		return victims[i].priority > victims[j].priority // lowest priority first
	})
	return victims
}

// revokeAndReassign revokes victims until enough resource for `need` units
// of size is freed, then runs normal reassignment on the touched machines.
// The revocation decisions precede the reassignment grants in the result.
func (s *Scheduler) revokeAndReassign(victims []victimGrant, size resource.Vector, need int, reason Reason) []Decision {
	if need <= 0 || len(victims) == 0 {
		return nil
	}
	var out []Decision
	var touched []int32
	freed := resource.Vector{}
	target := size.Scale(int64(need))
	for _, v := range victims {
		if freed.Contains(target) {
			break
		}
		// Revoke just enough containers from this victim.
		k := 0
		for k < v.count && !freed.Contains(target) {
			k++
			freed = freed.Add(v.unit.def.Size)
		}
		if k == 0 {
			continue
		}
		s.releaseOn(v.app, v.unit, v.machine, k)
		s.preempted += int64(k)
		out = append(out, Decision{App: v.app.name, AppID: v.app.id, UnitID: v.unit.def.ID,
			Machine: s.top.MachineName(v.machine), MachineID: v.machine, Delta: -k, Reason: reason})
		touched = append(touched, v.machine)
	}
	out = append(out, s.assignOnIDs(touched)...)
	return out
}
