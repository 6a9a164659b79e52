package master

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/resource"
	"repro/internal/sim"
)

// treeFuzzSizes are the unit sizes the tree fuzz files entries under: the
// scale harness's three shapes and one with a virtual dimension, which the
// indexed tree files as opaque and never prunes.
var treeFuzzSizes = [4]resource.Vector{
	resource.New(500, 2048),
	resource.New(1000, 4096),
	resource.New(250, 1024),
	resource.New(100, 512).With("ASortResource", 1),
}

// treeFuzz drives the indexed tree and the legacy reference through one
// operation script over 4 apps × 3 units, 3 machines and 2 racks.
type treeFuzz struct {
	t      *testing.T
	idx    *localityTree
	ref    *legacyTree
	units  [4][3]unitState
	now    sim.Time
	step   int
	stream [2][]string // scratch: the two trees' candidate streams
}

func newTreeFuzz(t *testing.T) *treeFuzz {
	f := &treeFuzz{t: t, idx: newLocalityTree(), ref: newLegacyTree()}
	for a := range f.units {
		for u := range f.units[a] {
			f.units[a][u].def = resource.ScheduleUnit{ID: u + 1, Size: treeFuzzSizes[(a+u)%4]}
		}
	}
	return f
}

// node decodes one byte into a locality node: machine 0–2, rack 0–1 or the
// cluster.
func treeFuzzNode(c byte) (resource.LocalityType, int32) {
	switch c % 3 {
	case 0:
		return resource.LocalityMachine, int32(c>>2) % 3
	case 1:
		return resource.LocalityRack, int32(c>>2) % 2
	default:
		return resource.LocalityCluster, 0
	}
}

// free decodes one byte into a freed fragment: nil (no pruning), tiny, each
// unit size's CPU and memory, or huge.
func treeFuzzFree(c byte) *resource.Vector {
	var v resource.Vector
	switch n := int(c % 7); {
	case n == 0:
		return nil
	case n == 1:
		v = resource.New(1, 1)
	case n <= 5:
		sz := treeFuzzSizes[n-2]
		v = resource.New(sz.CPUMilli(), sz.MemoryMB())
	default:
		v = resource.New(1<<40, 1<<40)
	}
	return &v
}

// candidates runs one free-up on both trees and fails unless they stream
// the same entries once those that cannot fit free are dropped. The legacy
// tree never prunes; the indexed one may. With grant set, every accepted
// entry takes one unit of its size out of free, as a grant does, so both
// trees must follow a shrinking fragment. k > 0 stops the stream after k
// accepted entries.
func (f *treeFuzz) candidates(machine, rack int32, free *resource.Vector, aging float64, grant bool, k int) {
	var start resource.Vector
	if free != nil {
		start = *free
	}
	for i, tr := range []waitTree{f.idx, f.ref} {
		out := f.stream[i][:0]
		v := start
		fv := &v
		if free == nil {
			fv = nil
		}
		tr.forEachCandidate(machine, rack, f.now, aging, fv, func(e *waitEntry) bool {
			sz := f.units[e.key.app][e.key.unit].def.Size
			if fv != nil && !sz.HasVirtual() && (fv.CPUMilli() < sz.CPUMilli() || fv.MemoryMB() < sz.MemoryMB()) {
				return true
			}
			out = append(out, fmt.Sprintf("%d/%d@%d:%d n=%d seq=%d", e.key.app, e.key.unit, e.level, e.node, e.count, e.seq))
			if grant && fv != nil {
				*fv = resource.New(max(fv.CPUMilli()-sz.CPUMilli(), 0), max(fv.MemoryMB()-sz.MemoryMB(), 0))
			}
			return k == 0 || len(out) < k
		})
		f.stream[i] = out
	}
	if !slices.Equal(f.stream[0], f.stream[1]) {
		f.t.Fatalf("step %d: free-up on machine %d rack %d (free %v, aging %v, grant %v, k %d):\nindexed %v\nlegacy  %v",
			f.step, machine, rack, free, aging, grant, k, f.stream[0], f.stream[1])
	}
}

// run applies one script. Each op is a byte whose low two bits pick add,
// setCount, removeApp or a free-up and whose high bits advance the clock,
// followed by its operands. Priorities run 1–5, one more than a queue's
// inline slots.
func (f *treeFuzz) run(data []byte) {
	s := &syncScript{b: data}
	for f.step = 0; len(s.b) > 0; f.step++ {
		op := s.next()
		f.now += sim.Time(op>>2) * 250 * sim.Millisecond
		switch op & 3 {
		case 0, 1:
			a, u := int32(s.next()%4), int32(s.next()%3)
			lvl, node := treeFuzzNode(s.next())
			prio := 1 + int(s.next()%5)
			n := int(int8(s.next())) % 4
			us := &f.units[a][u]
			k := waitKey{app: a, unit: u}
			if op&3 == 0 {
				got, want := f.idx.add(k, prio, lvl, node, n, f.now, nil, us), f.ref.add(k, prio, lvl, node, n, f.now, nil, us)
				if got != want {
					f.t.Fatalf("step %d: add returned %d, legacy %d", f.step, got, want)
				}
			} else {
				f.idx.setCount(k, prio, lvl, node, n, f.now, nil, us)
				f.ref.setCount(k, prio, lvl, node, n, f.now, nil, us)
			}
		case 2:
			a := int32(s.next() % 4)
			f.idx.removeApp(a)
			f.ref.removeApp(a)
		case 3:
			machine, rack := int32(s.next()%3), int32(s.next()%2)
			free := treeFuzzFree(s.next())
			flags := s.next()
			aging := 0.0
			if flags&1 != 0 {
				aging = 0.5
			}
			f.candidates(machine, rack, free, aging, flags&2 != 0, int(flags>>2)%4)
		}
		checkTreeSummaries(f.t, f.idx)
		for m := int32(0); m < 3; m++ {
			for r := int32(0); r < 2; r++ {
				f.candidates(m, r, nil, 0, false, 0)
			}
		}
	}
}

// FuzzLocalityTree is the indexed tree's differential fuzz: byte scripts of
// add, setCount, removeApp and free-ups (with every kind of fragment, aging
// on and off, shrinking fragments and early stops) run on the indexed tree
// and the legacy reference, whose candidate streams must agree after every
// op, and every queue and bucket summary must equal a recount.
func FuzzLocalityTree(f *testing.F) {
	f.Add([]byte{})
	// One waiter at each level of machine 0's path, then free-ups of every
	// fragment.
	f.Add([]byte{
		0, 0, 0, 0, 0, 2, // app 0 unit 0 on machine 0, prio 1, +2
		0, 1, 1, 1, 1, 1, // app 1 unit 1 on rack 0, prio 2, +1
		0, 2, 2, 2, 2, 3, // app 2 unit 2 at the cluster, prio 3, +3
		0, 3, 0, 2, 0, 1, // app 3 unit 0 (the opaque size) at the cluster, prio 1
		3, 0, 0, 1, 0, // tiny fragment: only the opaque waiter
		3, 0, 0, 2, 2, // medium fragment, granting
		3, 0, 0, 3, 4, // large fragment, stop after one
		3, 0, 0, 4, 3, // small fragment, aging on, granting
	})
	// Satisfied machine and rack hints left dead in their queues under live
	// cluster demand — the churn shape — then an app leaves and returns.
	f.Add([]byte{
		0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0xff, // app 0 unit 0 on machine 0: raised, satisfied
		0, 0, 1, 4, 1, 1, 0, 0, 1, 4, 1, 0xff, // app 0 unit 1 on rack 1: raised, satisfied
		0, 1, 2, 2, 2, 2, 0, 2, 0, 2, 0, 1, // live cluster demand at prios 3 and 1
		3, 0, 1, 4, 2, 3, 2, 0, 3, 0, // free-ups: small granting, large
		6, 1, // removeApp 1, a quarter second later
		0, 1, 2, 2, 2, 2, // app 1 unit 2 returns at the cluster
		1, 0, 0, 0, 0, 3, // setCount revives the machine hint
		3, 0, 0, 6, 1, // huge free-up with aging
	})
	// Opaque and sized waiters in one bucket, counts forced through zero.
	f.Add([]byte{
		0, 3, 0, 2, 0, 2, // app 3 unit 0 (opaque) at the cluster, prio 1
		0, 0, 2, 2, 0, 2, // app 0 unit 2 (small) in the same bucket
		0, 1, 0, 2, 0, 2, // app 1 unit 0 (large) in the same bucket
		1, 3, 0, 2, 0, 0, // setCount: the opaque waiter to zero
		3, 2, 1, 5, 2, // free-up of the opaque size's CPU and memory, granting
		1, 3, 0, 2, 0, 3, // setCount revives it
		2, 3, // removeApp 3
		3, 2, 1, 1, 6, // tiny free-up, granting, stop after one
	})
	f.Add(treeSpillScript())
	f.Fuzz(func(t *testing.T, data []byte) {
		newTreeFuzz(t).run(data)
	})
}

// treeSpillScript drives a class, a bucket and a queue past their inline
// arrays, rebuilds the spilled class and a whole bucket on tombstones, and
// hands the freed entry, class and bucket records out again.
func treeSpillScript() []byte {
	s := []byte{
		// Cluster priority 1 gets a fourth size class, the opaque one.
		0, 0, 0, 2, 0, 1, // app 0 unit 0 (500 mCPU)
		0, 0, 1, 2, 0, 1, // app 0 unit 1 (1000 mCPU)
		0, 0, 2, 2, 0, 1, // app 0 unit 2 (250 mCPU)
		0, 3, 0, 2, 0, 1, // app 3 unit 0 (opaque)
		// The cluster queue gets a fifth priority.
		0, 2, 0, 2, 1, 1, // app 2 unit 0 at priority 2
		0, 2, 1, 2, 2, 1, // app 2 unit 1 at priority 3
		0, 2, 2, 2, 3, 1, // app 2 unit 2 at priority 4
		0, 3, 1, 2, 4, 1, // app 3 unit 1 at priority 5
		3, 0, 0, 0, 0, // free-up, no pruning
		3, 0, 0, 6, 1, // huge free-up, aging on
	}
	// App 1 comes and goes 264 times, each time at the cluster beside app 0
	// unit 1's class (past four entries and one bitmap word, then rebuilt at
	// the 257th tombstone around app 0's survivor) and alone in machine 0's
	// priority 2 (rebuilt empty at the 257th, so its bucket leaves the queue
	// and the next visit takes the freed records back).
	for range 264 {
		s = append(s,
			0, 1, 0, 2, 0, 1, // app 1 unit 0 (1000 mCPU) at the cluster, priority 1
			0, 1, 1, 0, 1, 1, // app 1 unit 1 on machine 0, priority 2
			2, 1) // removeApp 1
	}
	return append(s,
		0, 1, 0, 2, 0, 2, // app 1 returns at the cluster
		3, 0, 0, 4, 2, // medium free-up, granting
		3, 0, 1, 2, 5, // small free-up, granting, stop after one
	)
}

// checkTreeSummaries recounts every queue's and bucket's summary from its
// size classes and fails on the first that differs: live and physical
// counts, the fit bounds over the live classes, sorted priorities, no
// empty bucket left queued, each class's own live count against its
// entries and bitmap, and every entry's position, in seq order.
func checkTreeSummaries(t testing.TB, tr *localityTree) {
	t.Helper()
	queues := append(append([]*treeQueue{&tr.cq}, tr.mq...), tr.rq...)
	for qi, q := range queues {
		if q == nil {
			continue
		}
		qfit := emptyFit
		for i := range q.slots {
			s := &q.slots[i]
			if i > 0 && q.slots[i-1].prio >= s.prio {
				t.Fatalf("queue %d: priorities out of order at slot %d", qi, i)
			}
			fit, entries := emptyFit, 0
			for _, c := range s.b.classes {
				if c.q != q || c.b != s.b {
					t.Fatalf("queue %d prio %d: class points at another bucket", qi, s.prio)
				}
				live, pop := 0, 0
				for i, e := range c.entries {
					if e.count > 0 && !e.parked {
						live++
					}
					if i > 0 && c.entries[i-1].seq >= e.seq || e.cls != c || int(e.pos) != i {
						t.Fatalf("queue %d prio %d: entry %d out of place", qi, s.prio, i)
					}
				}
				for _, w := range c.live {
					pop += bits.OnesCount64(w)
				}
				if c.nLive != live || pop != live {
					t.Fatalf("queue %d prio %d: class nLive %d, bitmap %d, recount %d", qi, s.prio, c.nLive, pop, live)
				}
				entries += len(c.entries)
				if live > 0 {
					fit.live += int32(live)
					fit.merge(c.bound())
				}
			}
			if entries == 0 || int(s.entries) != entries || s.fitSum != fit {
				t.Fatalf("queue %d prio %d: summary %+v (entries %d), recount %+v (entries %d)",
					qi, s.prio, s.fitSum, s.entries, fit, entries)
			}
			if s.live > 0 {
				qfit.live += s.live
				qfit.merge(s.fitSum)
			}
		}
		if q.fit != qfit {
			t.Fatalf("queue %d: summary %+v, recount %+v", qi, q.fit, qfit)
		}
	}
}

// TestTombstoneRebuild: once an unregistered app's tombstones dominate a
// class, the rebuild drops them and renumbers the survivors in seq order,
// and a bucket left with no entry leaves its queue at once, while the
// summaries stay exact throughout.
func TestTombstoneRebuild(t *testing.T) {
	tr := newLocalityTree()
	u := &unitState{def: resource.ScheduleUnit{ID: 1, Size: resource.New(500, 2048)}}
	// Priority 7 interleaves 257 apps that leave with 10 that stay;
	// priority 9 holds only apps that leave.
	for a := int32(1); a <= 257; a++ {
		tr.add(waitKey{app: a}, 7, resource.LocalityCluster, 0, 1, 0, nil, u)
		tr.add(waitKey{app: a + 1000}, 9, resource.LocalityCluster, 0, 1, 0, nil, u)
		if a%25 == 0 {
			tr.add(waitKey{app: a + 2000}, 7, resource.LocalityCluster, 0, 1, 0, nil, u)
		}
	}
	if len(tr.cq.slots) != 2 {
		t.Fatalf("setup: %d buckets, want 2", len(tr.cq.slots))
	}
	for a := int32(1); a <= 257; a++ {
		tr.removeApp(a)
		tr.removeApp(a + 1000)
		checkTreeSummaries(t, tr)
	}
	if len(tr.cq.slots) != 1 || tr.cq.slots[0].prio != 7 || tr.cq.slots[0].entries != 10 {
		t.Fatalf("after the rebuilds: %d buckets, want priority 7's 10 survivors alone", len(tr.cq.slots))
	}
	free := resource.New(500, 2048)
	got := collectCandidates(tr, 0, 0, 0, 0, &free)
	for i, e := range got {
		if want := int32(2000 + 25*(i+1)); e.key.app != want {
			t.Fatalf("candidate %d is app %d, want %d", i, e.key.app, want)
		}
	}
	if len(got) != 10 {
		t.Fatalf("%d candidates after the rebuild, want 10", len(got))
	}
}

// TestOutOfOrderEnqueue covers enqueue's sorted-insert branch, which no
// current caller reaches (fresh entries always carry the largest seq): an
// entry re-queued below its class's last seq lands in seq order, and the
// summaries count it.
func TestOutOfOrderEnqueue(t *testing.T) {
	tr := newLocalityTree()
	u := &unitState{def: resource.ScheduleUnit{ID: 1, Size: resource.New(500, 2048)}}
	tr.add(waitKey{app: 1}, 3, resource.LocalityCluster, 0, 1, 0, nil, u)
	tr.add(waitKey{app: 2}, 3, resource.LocalityCluster, 0, 1, 0, nil, u)
	e := &waitEntry{key: waitKey{app: 9}, priority: 3, seq: 0, level: resource.LocalityCluster, count: 1, u: u}
	tr.enqueue(e)
	checkTreeSummaries(t, tr)
	got := collectCandidates(tr, 0, 0, 0, 0, nil)
	if len(got) != 3 || got[0] != e || got[1].key.app != 1 || got[2].key.app != 2 {
		t.Fatalf("candidates after an out-of-order enqueue: %d", len(got))
	}
}

// TestRecycledRecordsKeepTheLegacyStream drives one size class past its
// tombstone rebuild — more than 256 gone entries, which the fuzz's four
// apps never reach — and a whole bucket out of its queue, then brings the
// apps back at a new priority, so that their entries, bucket and class come
// off the store's free lists. The candidate stream must equal the legacy
// tree's after every step, the summaries must recount, and the re-added
// apps must fit in the records the departures gave back: the stores must
// not grow.
func TestRecycledRecordsKeepTheLegacyStream(t *testing.T) {
	idx, ref := newLocalityTree(), newLegacyTree()
	u := &unitState{def: resource.ScheduleUnit{ID: 1, Size: resource.New(500, 2048)}}
	type cand struct {
		key   waitKey
		level resource.LocalityType
		node  int32
		count int
		seq   uint64
	}
	var got, want []cand
	stream := func(tr waitTree, out []cand) []cand {
		out = out[:0]
		tr.forEachCandidate(0, 0, 0, 0, nil, func(e *waitEntry) bool {
			out = append(out, cand{e.key, e.level, e.node, e.count, e.seq})
			return true
		})
		return out
	}
	step := 0
	check := func(what string) {
		t.Helper()
		step++
		checkTreeSummaries(t, idx)
		if got, want = stream(idx, got), stream(ref, want); !slices.Equal(got, want) {
			t.Fatalf("step %d (%s): %d candidates, legacy %d, or they differ", step, what, len(got), len(want))
		}
	}
	add := func(app int32, prio int, level resource.LocalityType, node int32, n int) {
		k := waitKey{app: app}
		idx.add(k, prio, level, node, n, 0, nil, u)
		ref.add(k, prio, level, node, n, 0, nil, u)
		check("add")
	}
	remove := func(app int32) {
		idx.removeApp(app)
		ref.removeApp(app)
		check("removeApp")
	}
	carved := func() [4]int {
		return [4]int{idx.entryRecs.Carved(), idx.classRecs.Carved(), idx.bucketRecs.Carved(), idx.queueRecs.Carved()}
	}
	// Apps 0–599 wait at the cluster at priority 5, every tenth also on
	// machine 0; apps 600–856 are priority 9's whole bucket.
	for a := int32(0); a < 600; a++ {
		add(a, 5, resource.LocalityCluster, 0, 1+int(a%3))
		if a%10 == 0 {
			add(a, 5, resource.LocalityMachine, 0, 1)
		}
	}
	for a := int32(600); a < 857; a++ {
		add(a, 9, resource.LocalityCluster, 0, 1)
	}
	full := carved()
	// 400 of priority 5's apps leave: its cluster class rebuilds at the
	// 301st tombstone and frees 301 entries. Priority 9's apps all leave:
	// the rebuild at the 257th empties the bucket, which leaves its queue
	// with its class.
	for a := int32(0); a < 400; a++ {
		remove(a)
	}
	for a := int32(600); a < 857; a++ {
		remove(a)
	}
	if len(idx.cq.slots) != 1 || idx.cq.slots[0].prio != 5 {
		t.Fatalf("after the departures the cluster queue has %d buckets, want priority 5's alone", len(idx.cq.slots))
	}
	// The departed apps' IDs come back, as the scheduler reuses them, at a
	// priority of their own: 440 entries, more than the current chunk's
	// untouched tail, a new bucket and a new class.
	for a := int32(0); a < 400; a++ {
		add(a, 7, resource.LocalityCluster, 0, 2)
		if a%10 == 0 {
			add(a, 7, resource.LocalityMachine, 0, 1)
		}
	}
	if now := carved(); now != full {
		t.Fatalf("records carved (entries, classes, buckets, queues) grew from %v to %v: re-added apps did not reuse the freed ones", full, now)
	}
}
