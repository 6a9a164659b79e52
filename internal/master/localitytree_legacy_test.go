package master

import (
	"sort"

	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
)

// legacyQueueID addresses one flat legacy queue.
type legacyQueueID struct {
	level resource.LocalityType
	node  int32
}

// legacyTree is the original locality-tree implementation: flat per-node
// queues that retain every indexed entry (including satisfied, zero-count
// ones) and re-sort the combined candidate list on every free-up. It is
// the reference implementation the parity tests compare the indexed tree
// against, installed on a fresh scheduler by newTestScheduler. (It speaks
// the same interned-ID node operands as the indexed tree — the scheduler
// resolves names exactly once either way — but keeps its original map-keyed
// queues and scan-and-sort behaviour.)
type legacyTree struct {
	queues map[legacyQueueID][]*waitEntry
	index  map[treeIdx]*waitEntry
	seq    uint64
}

// newTestScheduler builds a scheduler on the indexed tree or, with legacy
// set, on the reference tree (swapped in before any demand is queued).
func newTestScheduler(top *topology.Topology, opts Options, legacy bool) *Scheduler {
	s := NewScheduler(top, opts)
	if legacy {
		s.tree = newLegacyTree()
	}
	return s
}

func newLegacyTree() *legacyTree {
	return &legacyTree{
		queues: make(map[legacyQueueID][]*waitEntry),
		index:  make(map[treeIdx]*waitEntry),
	}
}

// add increments the waiting count for key at (level, node), creating the
// entry at the queue tail when new. Negative deltas decrement, flooring at
// zero. It returns the entry's resulting count.
func (t *legacyTree) add(key waitKey, priority int, level resource.LocalityType, node int32, delta int, now sim.Time, st *appState, u *unitState) int {
	idx := treeIdx{key: key, level: level, node: node}
	e := t.index[idx]
	if e == nil {
		if delta <= 0 {
			return 0
		}
		t.seq++
		e = &waitEntry{key: key, priority: priority, seq: t.seq, level: level, node: node, enqueuedAt: now}
		t.index[idx] = e
		qid := legacyQueueID{level: level, node: node}
		t.queues[qid] = append(t.queues[qid], e)
	}
	if e.count == 0 && delta > 0 {
		e.enqueuedAt = now // waiting clock restarts after a zero crossing
	}
	e.count += delta
	if e.count < 0 {
		e.count = 0
	}
	return e.count
}

// get returns the current waiting count for key at (level, node).
func (t *legacyTree) get(key waitKey, level resource.LocalityType, node int32) int {
	if e := t.index[treeIdx{key: key, level: level, node: node}]; e != nil {
		return e.count
	}
	return 0
}

// setCount forces the waiting count at one node (reconciliation).
func (t *legacyTree) setCount(key waitKey, priority int, level resource.LocalityType, node int32, count int, now sim.Time, st *appState, u *unitState) {
	e := t.index[treeIdx{key: key, level: level, node: node}]
	if e == nil {
		if count > 0 {
			t.add(key, priority, level, node, count, now, st, u)
		}
		return
	}
	if count < 0 {
		count = 0
	}
	e.count = count
}

// nodesFor appends the locality nodes where key has an entry to buf.
func (t *legacyTree) nodesFor(key waitKey, buf []treeIdx) []treeIdx {
	for idx := range t.index {
		if idx.key == key {
			buf = append(buf, idx)
		}
	}
	return buf
}

// removeApp drops every entry belonging to app.
func (t *legacyTree) removeApp(app int32) {
	for idx, e := range t.index {
		if idx.key.app == app {
			e.count = 0 // tombstone; compacted lazily
			delete(t.index, idx)
		}
	}
}

// forEachCandidate streams the live waiting entries eligible to receive
// resources freed on machine (in rack), ordered by (aged priority, level,
// seq), re-scanning and re-sorting the three queues on every call. The
// free vector is ignored: the baseline scans everything.
func (t *legacyTree) forEachCandidate(machine, rack int32, now sim.Time, agingBoost float64, free *resource.Vector, fn func(*waitEntry) bool) {
	var out []*waitEntry
	collect := func(level resource.LocalityType, node int32) {
		qid := legacyQueueID{level: level, node: node}
		q := t.queues[qid]
		live := q[:0]
		for _, e := range q {
			if e.count > 0 {
				live = append(live, e)
				out = append(out, e)
			} else if _, present := t.index[treeIdx{key: e.key, level: e.level, node: e.node}]; present {
				// Zero count but still indexed: keep its queue position so a
				// future demand increase resumes at the original seq.
				live = append(live, e)
			}
		}
		t.queues[qid] = live
	}
	collect(resource.LocalityMachine, machine)
	collect(resource.LocalityRack, rack)
	collect(resource.LocalityCluster, 0)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		pa, pb := a.effectivePriority(now, agingBoost), b.effectivePriority(now, agingBoost)
		if pa != pb {
			return pa < pb
		}
		if a.level != b.level {
			return a.level < b.level
		}
		return a.seq < b.seq
	})
	for _, e := range out {
		if !fn(e) {
			return
		}
	}
}

// minFit implements waitTree: the baseline never prunes.
func (t *legacyTree) minFit() (int64, int64) { return 0, 0 }

// totalWaiting sums all waiting counts for a key across the tree.
func (t *legacyTree) totalWaiting(key waitKey) int {
	n := 0
	for idx, e := range t.index {
		if idx.key == key {
			n += e.count
		}
	}
	return n
}

// waitingByLevel reports the per-level aggregate counts for a key.
func (t *legacyTree) waitingByLevel(key waitKey) (machine, rack, cluster int) {
	for idx, e := range t.index {
		if idx.key != key {
			continue
		}
		switch idx.level {
		case resource.LocalityMachine:
			machine += e.count
		case resource.LocalityRack:
			rack += e.count
		case resource.LocalityCluster:
			cluster += e.count
		}
	}
	return
}
