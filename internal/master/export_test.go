package master

import "repro/internal/resource"

// This file holds scheduler and checkpoint probes: exported for this package's tests, which read
// them, and called by no shipped code.

// PendingDeltas returns the records a promotion would replay on top of the
// current anchor.
func (c *CheckpointStore) PendingDeltas() int { return c.logRecs }

// TotalFree sums the free pool over schedulable machines.
func (s *Scheduler) TotalFree() resource.Vector {
	var t resource.Vector
	for id := int32(0); id < s.nMach; id++ {
		if s.schedulable(id) {
			t = t.Add(s.free[id])
		}
	}
	return t
}

// WaitingByLevel reports queued counts per locality level for (app, unit),
// mirroring the paper's Figure 5 scheduling-tree view.
func (s *Scheduler) WaitingByLevel(app string, unitID int) (machine, rack, cluster int) {
	st, ok := s.apps[app]
	if !ok {
		return 0, 0, 0
	}
	u := st.unit(unitID)
	if u == nil {
		return 0, 0, 0
	}
	return s.tree.waitingByLevel(waitKey{app: st.id, unit: u.idx})
}

// WaitingNodes lists the locality nodes where (app, unit) currently has a
// queued entry, as (level, node ID, count) in (level, node) order — the
// tree's view of one unit, used by tests and the failover rebuild helpers.
func (s *Scheduler) WaitingNodes(app string, unitID int) []resource.LocalityHint {
	st, ok := s.apps[app]
	if !ok {
		return nil
	}
	u := st.unit(unitID)
	if u == nil {
		return nil
	}
	key := waitKey{app: st.id, unit: u.idx}
	var out []resource.LocalityHint
	for _, idx := range s.tree.nodesFor(key, nil) {
		c := s.tree.get(key, idx.level, idx.node)
		if c <= 0 {
			continue
		}
		out = append(out, resource.LocalityHint{Type: idx.level, Node: idx.node, Count: c})
	}
	resource.SortHints(out)
	return out
}

// GroupMin returns a quota group's guaranteed minimum (zero when none).
func (s *Scheduler) GroupMin(group string) resource.Vector {
	if g, ok := s.groups[group]; ok {
		return g.min.Clone()
	}
	return resource.Vector{}
}
