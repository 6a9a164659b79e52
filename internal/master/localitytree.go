package master

import (
	"math/bits"
	"sort"

	"repro/internal/dense"
	"repro/internal/resource"
	"repro/internal/sim"
)

// waitKey identifies one (application, ScheduleUnit) waiting in the tree,
// in interned form: app is the scheduler-assigned dense application ID and
// unit the unit's position in that application's unit array — both small
// and dense, so the tree finds a key's entries by indexing, not hashing.
type waitKey struct {
	app  int32
	unit int32
}

// waitEntry is one queued demand: count units wanted by key at one locality
// node. Entries at the same node merge; seq preserves FIFO among equal
// priorities (paper §3.3: "all applications waiting on the same tree are
// sorted by priority and submission time").
type waitEntry struct {
	key      waitKey
	priority int
	seq      uint64
	level    resource.LocalityType
	node     int32 // machine or rack ID; 0 at cluster level
	count    int
	// enqueuedAt feeds the optional anti-starvation aging: long-waiting
	// entries gain effective priority (§7 lists starvation guards as
	// future work; this is that extension).
	enqueuedAt sim.Time
	// queued marks membership in a localityTree bucket (not used by the
	// legacy tree, whose queues never drop zero-count entries eagerly).
	queued bool
	// parked marks an entry skipped in place while its unit is saturated
	// (see Scheduler.park); releaseOn revives it at its original position
	// the moment headroom reappears. Parked entries stay physically queued
	// — only gone entries are ever dropped.
	parked bool
	// cls/pos locate the entry in the sizeClass physically holding it
	// (cls nil when not queued, or in the legacy tree). Positions are
	// stable — entries never move within a class except on tombstone
	// rebuilds — so liveness flips are O(1) bitmap updates.
	cls *sizeClass
	pos int32
	// gone marks an entry whose app unregistered: it can never revive and
	// is physically dropped at the next tombstone rebuild.
	gone bool
	// st/u cache the scheduler-state resolution of key so the assignment
	// loop does not repeat two map lookups per candidate per free-up. Only
	// live (indexed) entries are ever handed out as candidates, and removeApp
	// clears both on the app's tombstones, so the pointers never outlive the
	// app registration that created them.
	st *appState
	u  *unitState
}

// effectivePriority applies aging: boostPerSec priority points per second
// waited (0 disables).
func (e *waitEntry) effectivePriority(now sim.Time, boostPerSec float64) int {
	if boostPerSec <= 0 {
		return e.priority
	}
	boost := int(boostPerSec * (now - e.enqueuedAt).Seconds())
	p := e.priority - boost
	if p < 0 {
		p = 0
	}
	return p
}

// treeIdx addresses one tree entry: (key, level, node), all interned IDs.
type treeIdx struct {
	key   waitKey
	level resource.LocalityType
	node  int32
}

// waitTree is the locality-tree contract the scheduler programs against.
// The scheduler always runs localityTree (indexed per-level wait queues
// over ID-indexed slices); the tests install legacyTree (the original
// linear-scan-and-sort structure, in localitytree_legacy_test.go) as the
// reference the parity fuzz compares it against. Node operands are dense IDs:
// machine IDs at LocalityMachine, rack IDs at LocalityRack, 0 at
// LocalityCluster (the scheduler resolves hint names to IDs once per
// demand update, at the wire boundary).
//
// add and setCount accept the resolved (appState, unitState) of the key so
// the indexed tree can file the entry under its unit's size class and keep
// its fit summaries; a nil unit is allowed (tests) and files the entry as
// opaque, which is never pruned.
type waitTree interface {
	add(key waitKey, priority int, level resource.LocalityType, node int32, delta int, now sim.Time, st *appState, u *unitState) int
	get(key waitKey, level resource.LocalityType, node int32) int
	// setCount forces the waiting count at one node (full-state
	// reconciliation); unlike add it never resets the aging clock.
	setCount(key waitKey, priority int, level resource.LocalityType, node int32, count int, now sim.Time, st *appState, u *unitState)
	// nodesFor appends the locality nodes where key currently has an entry
	// to buf (a pooled caller scratch) and returns it.
	nodesFor(key waitKey, buf []treeIdx) []treeIdx
	removeApp(app int32)
	// forEachCandidate streams the live entries eligible for capacity
	// freed on machine (in rack), in (aged priority, level, seq) order,
	// until fn returns false. A non-nil free vector lets the implementation
	// prune entries that provably cannot fit it, re-reading it between
	// entries (the caller keeps it current as grants shrink the capacity);
	// nil disables pruning.
	forEachCandidate(machine, rack int32, now sim.Time, agingBoost float64, free *resource.Vector, fn func(*waitEntry) bool)
	totalWaiting(key waitKey) int
	waitingByLevel(key waitKey) (machine, rack, cluster int)
	// minFit returns a conservative lower bound (CPU milli, memory MB) that
	// any queued entry requires: a free fragment below either bound can be
	// skipped without walking a single queue. (0, 0) disables the pruning —
	// the reference tree always returns that, and the indexed tree falls
	// back to it once an opaque-size entry has ever been queued.
	minFit() (int64, int64)
}

// collectCandidates gathers a tree's full candidate list (test helper and
// aging-path building block).
func collectCandidates(t waitTree, machine, rack int32, now sim.Time, agingBoost float64, free *resource.Vector) []*waitEntry {
	var out []*waitEntry
	t.forEachCandidate(machine, rack, now, agingBoost, free, func(e *waitEntry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// ---------------------------------------------------------------------------
// indexed implementation
// ---------------------------------------------------------------------------

// noFit is a fit bound's minimum when no live non-opaque class contributes.
const noFit = 1<<63 - 1

// fitSum summarises the live size classes under one priority bucket or one
// whole queue: how many live entries they hold and the smallest unit any of
// them wants — the minimum CPU and the minimum memory over the live
// non-opaque classes (taken separately, so a bound, not an exact shape), and
// whether a live opaque class, which is never pruned, is among them. A walk
// reads it to drop a dead or unfit bucket or queue without dereferencing a
// single bucket or class.
type fitSum struct {
	cpu, mem int64
	live     int32
	opaque   bool
}

var emptyFit = fitSum{cpu: noFit, mem: noFit}

// mayFit reports whether a live class under the summary could fit free. A
// nil free means "no pruning requested".
func (f *fitSum) mayFit(free *resource.Vector) bool {
	return f.live > 0 && (f.opaque || free == nil ||
		free.CPUMilli() >= f.cpu && free.MemoryMB() >= f.mem)
}

// merge widens f's fit bound to cover o's (live counts are kept apart).
func (f *fitSum) merge(o fitSum) {
	f.cpu = min(f.cpu, o.cpu)
	f.mem = min(f.mem, o.mem)
	f.opaque = f.opaque || o.opaque
}

// sizeClass groups the members of one bucket that wait with the same
// physical container size, FIFO by seq. Eligibility of a whole class
// against the current free fragment is one pair of integer compares, so a
// free-up that fits none of a class's thousands of waiters skips all of
// them at once. Entries whose size is unknown or carries virtual
// dimensions go to the opaque class, which is never pruned.
//
// Entries occupy STABLE positions: the array is append-only (appends are
// seq order, so position order is seq order) and a satisfied or parked
// entry stays exactly where it is, marked dead in a two-level liveness
// bitmap. The steady-state churn pattern — every entry's count cycling
// satisfied→re-raised once per hold period — therefore costs one bit
// clear and one bit set per cycle, where an eagerly-compacting array paid
// a full tail memmove for the removal and another for the seq-ordered
// re-insert. Walks skip dead spans with word-level bit scans
// (64 entries per compare, 4096 per summary compare). Only entries of
// unregistered apps (gone) are ever physically removed, by an amortized
// tombstone rebuild. Every change of the live or physical count is
// reported to the class's bucket slot and queue summaries (account).
//
// A class's first classInline entries and its first bitmap words live in
// the record itself: the first push points the slices at inl, liveInl and
// sumInl, so a class carved from its store's chunk comes with its storage,
// and only one that outgrows them pays for a heap array (EXPERIMENTS.md,
// "What a promotion's tree records cost"). The slices then point into the
// record, so a sizeClass must never be copied by value.
type sizeClass struct {
	cpu, mem int64
	opaque   bool
	entries  []*waitEntry // append-only; position order == seq order
	live     []uint64     // liveness bitmap, bit per position
	sum      []uint64     // summary bitmap, bit per live word
	nLive    int
	tomb     int         // gone tombstones awaiting rebuild
	cur      int         // walk cursor (valid during one walk)
	q        *treeQueue  // the queue holding this class's bucket
	b        *treeBucket // the bucket holding this class
	inl      [classInline]*waitEntry
	liveInl  [1]uint64
	sumInl   [1]uint64
}

// The inline capacities of a tree record's arrays, sized for what the
// workloads build (EXPERIMENTS.md, "What a promotion's tree records cost"):
// on failover 97 % of classes never hold a fifth entry, a bucket holds at
// most the harness's three unit sizes (×1, ×2, ×4) and a queue its four
// priorities.
const (
	classInline  = 4
	bucketInline = 3
	queueInline  = 4
)

// eligible reports whether one unit of this class could fit free. A nil
// free means "no pruning requested".
func (c *sizeClass) eligible(free *resource.Vector) bool {
	if c.opaque || free == nil {
		return true
	}
	return free.CPUMilli() >= c.cpu && free.MemoryMB() >= c.mem
}

// bound is the class's contribution to a fit summary while it is live.
func (c *sizeClass) bound() fitSum {
	if c.opaque {
		return fitSum{cpu: noFit, mem: noFit, opaque: true}
	}
	return fitSum{cpu: c.cpu, mem: c.mem}
}

// account moves c's live count by dLive and its physical count by dEntries,
// keeping its bucket slot's and its queue's summaries exact: the counts
// move in step, and the fit bounds widen when c turns live and are
// recomputed when it turns dead. It returns the bucket's slot index.
func (c *sizeClass) account(dLive, dEntries int) int {
	was := c.nLive
	c.nLive += dLive
	q := c.q
	i := q.slotOf(c.b)
	s := &q.slots[i]
	s.live += int32(dLive)
	s.entries += int32(dEntries)
	q.fit.live += int32(dLive)
	switch {
	case was == 0 && c.nLive > 0:
		s.merge(c.bound())
		q.fit.merge(c.bound())
	case was > 0 && c.nLive == 0:
		q.refit(s)
	}
	return i
}

// push appends a live entry (its seq exceeds every present entry's).
func (c *sizeClass) push(e *waitEntry) {
	if c.entries == nil {
		c.entries, c.live, c.sum = c.inl[:0], c.liveInl[:0], c.sumInl[:0]
	}
	i := len(c.entries)
	e.cls = c
	e.pos = int32(i)
	c.entries = append(c.entries, e)
	for i>>6 >= len(c.live) {
		c.live = append(c.live, 0)
	}
	for i>>12 >= len(c.sum) {
		c.sum = append(c.sum, 0)
	}
	c.setBit(i)
	c.account(1, 1)
}

func (c *sizeClass) setLive(i int) {
	c.setBit(i)
	c.account(1, 0)
}

func (c *sizeClass) clearLive(i int) {
	w := i >> 6
	c.live[w] &^= 1 << uint(i&63)
	if c.live[w] == 0 {
		c.sum[w>>6] &^= 1 << uint(w&63)
	}
	c.account(-1, 0)
}

func (c *sizeClass) setBit(i int) {
	w := i >> 6
	if c.live[w] == 0 {
		c.sum[w>>6] |= 1 << uint(w&63)
	}
	c.live[w] |= 1 << uint(i&63)
}

// nextLive returns the first live position >= i (len(entries) when none):
// one masked word test for the common dense case, then a summary-guided
// scan that crosses 4096 dead entries per compare.
func (c *sizeClass) nextLive(i int) int {
	n := len(c.entries)
	if i >= n {
		return n
	}
	w := i >> 6
	if word := c.live[w] >> uint(i&63); word != 0 {
		return i + bits.TrailingZeros64(word)
	}
	sw := w >> 6
	if rest := c.sum[sw] >> uint(w&63) >> 1; rest != 0 {
		w += 1 + bits.TrailingZeros64(rest)
		return w<<6 + bits.TrailingZeros64(c.live[w])
	}
	for sw++; sw < len(c.sum); sw++ {
		if c.sum[sw] != 0 {
			w = sw<<6 + bits.TrailingZeros64(c.sum[sw])
			return w<<6 + bits.TrailingZeros64(c.live[w])
		}
	}
	return n
}

// rebuild physically drops gone tombstones, renumbering positions (order
// is preserved, so seq order survives) and rebuilding the bitmaps; each
// dropped tombstone goes back to t's store. A bucket left with no entry at
// all leaves its queue, and c with it.
func (c *sizeClass) rebuild(t *localityTree) {
	n0 := len(c.entries)
	w := 0
	for _, e := range c.entries {
		if e.gone {
			t.entryRecs.Free(e)
			continue
		}
		e.pos = int32(w)
		c.entries[w] = e
		w++
	}
	for i := w; i < n0; i++ {
		c.entries[i] = nil
	}
	c.entries = c.entries[:w]
	c.live = c.live[:0]
	c.sum = c.sum[:0]
	for i := (w + 63) >> 6; i > 0; i-- {
		c.live = append(c.live, 0)
	}
	for i := (((w + 63) >> 6) + 63) >> 6; i > 0; i-- {
		c.sum = append(c.sum, 0)
	}
	live := 0
	for i, e := range c.entries {
		if e.count > 0 && !e.parked {
			c.setBit(i)
			live++
		}
	}
	c.tomb = 0
	if i := c.account(live-c.nLive, w-n0); c.q.slots[i].entries == 0 {
		t.dropAt(c.q, i)
	}
}

// maybeRebuild triggers the tombstone rebuild once gone entries dominate.
func (c *sizeClass) maybeRebuild(t *localityTree) {
	if c.tomb > 256 && c.tomb*2 > len(c.entries) {
		c.rebuild(t)
	}
}

// treeBucket holds one priority class of one queue, partitioned into size
// classes; walks merge the classes back into seq (FIFO) order. Its first
// bucketInline classes are listed in the record (inl), so a bucket must
// never be copied by value.
type treeBucket struct {
	classes []*sizeClass
	inl     [bucketInline]*sizeClass
}

// classFor returns b's class for u's size in q, taking a new one from t's
// store when b has none yet.
func (t *localityTree) classFor(q *treeQueue, b *treeBucket, u *unitState) *sizeClass {
	var cpu, mem int64
	opaque := u == nil || u.def.Size.HasVirtual()
	if !opaque {
		cpu, mem = u.def.Size.CPUMilli(), u.def.Size.MemoryMB()
	}
	for _, c := range b.classes {
		if c.opaque == opaque && c.cpu == cpu && c.mem == mem {
			return c
		}
	}
	c := t.classRecs.New()
	c.cpu, c.mem, c.opaque, c.q, c.b = cpu, mem, opaque, q, b
	if b.classes == nil {
		b.classes = b.inl[:0]
	}
	b.classes = append(b.classes, c)
	return c
}

// noteKilled/noteRevived maintain the liveness bitmap as an in-place
// entry's state flips (count crossing zero, park/unpark).
func noteKilled(e *waitEntry) {
	if e.queued && e.cls != nil {
		e.cls.clearLive(int(e.pos))
	}
}

func noteRevived(e *waitEntry) {
	if e.queued && e.cls != nil {
		e.cls.setLive(int(e.pos))
	}
}

// walk streams the bucket's live entries to fn in seq order, merging the
// size classes and skipping classes the current free fragment cannot
// satisfy. It returns false when fn asked to stop. free is re-read between
// entries: once grants shrink it below a class's size, that class drops
// out of the merge mid-walk. Dead spans are crossed with bitmap scans;
// nothing moves. Only the classes live and eligible at the start get their
// cursor reset: fn grants and parks but never revives, and free only
// shrinks, so no other class can join the merge later.
func (b *treeBucket) walk(free *resource.Vector, fn func(*waitEntry) bool) bool {
	for _, c := range b.classes {
		if c.nLive > 0 && c.eligible(free) {
			c.cur = 0
		}
	}
	for {
		var best *sizeClass
		for _, c := range b.classes {
			if c.nLive == 0 || !c.eligible(free) {
				continue
			}
			c.cur = c.nextLive(c.cur)
			if c.cur >= len(c.entries) {
				continue
			}
			if best == nil || c.entries[c.cur].seq < best.entries[best.cur].seq {
				best = c
			}
		}
		if best == nil {
			return true
		}
		e := best.entries[best.cur]
		best.cur++
		if !fn(e) {
			return false
		}
	}
}

// appendLive appends every live entry (all classes, seq-merged not
// required: callers re-sort) to out.
func (b *treeBucket) appendLive(out []*waitEntry) []*waitEntry {
	for _, c := range b.classes {
		for _, e := range c.entries {
			if e.count > 0 && !e.parked {
				out = append(out, e)
			}
		}
	}
	return out
}

// prioSlot is one priority of a queue: its bucket and the bucket's
// summary, inline in the queue's sorted array so that a walk drops a dead
// or unfit bucket without loading it.
type prioSlot struct {
	fitSum
	prio    int
	entries int32 // physical entries, live and dead; never 0 while queued
	b       *treeBucket
}

// treeQueue is the waiting queue of one locality node, bucketed by priority
// so candidate collection walks entries already in scheduling order instead
// of sorting the queue on every free-up. A queue holds a handful of
// priorities, so the slots sit in a small sorted array: a free-up walks it
// in step with the other two queues and never looks a bucket up. fit
// summarises the whole queue, so a queue with nothing live that fits costs
// one read. Its first queueInline slots sit in the record (inl), so a queue
// must never be copied by value.
type treeQueue struct {
	fit   fitSum
	slots []prioSlot // sorted by prio
	inl   [queueInline]prioSlot
}

// bucket returns q's bucket of priority prio, taking a new one from t's
// store and slotting it in order when q has none yet.
func (t *localityTree) bucket(q *treeQueue, prio int) *treeBucket {
	i := 0
	for i < len(q.slots) && q.slots[i].prio < prio {
		i++
	}
	if i < len(q.slots) && q.slots[i].prio == prio {
		return q.slots[i].b
	}
	b := t.bucketRecs.New()
	if q.slots == nil {
		q.slots = q.inl[:0]
	}
	q.slots = append(q.slots, prioSlot{})
	copy(q.slots[i+1:], q.slots[i:])
	q.slots[i] = prioSlot{fitSum: emptyFit, prio: prio, b: b}
	return b
}

// slotOf returns the index of b's slot (a scan of a handful of slots).
func (q *treeQueue) slotOf(b *treeBucket) int {
	i := 0
	for q.slots[i].b != b {
		i++
	}
	return i
}

// dropAt removes q's i-th slot, whose bucket holds no entry, and gives the
// bucket and its classes back to t's store.
func (t *localityTree) dropAt(q *treeQueue, i int) {
	b := q.slots[i].b
	for _, c := range b.classes {
		t.classRecs.Free(c)
	}
	t.bucketRecs.Free(b)
	copy(q.slots[i:], q.slots[i+1:])
	q.slots[len(q.slots)-1] = prioSlot{}
	q.slots = q.slots[:len(q.slots)-1]
}

// refit recomputes slot s's fit bound from its bucket's live classes and
// the queue's from its live slots, after a class turned dead.
func (q *treeQueue) refit(s *prioSlot) {
	s.fitSum = fitSum{cpu: noFit, mem: noFit, live: s.live}
	for _, c := range s.b.classes {
		if c.nLive > 0 {
			s.merge(c.bound())
		}
	}
	q.fit = fitSum{cpu: noFit, mem: noFit, live: q.fit.live}
	for i := range q.slots {
		if q.slots[i].live > 0 {
			q.fit.merge(q.slots[i].fitSum)
		}
	}
}

// nextPrio returns the smallest priority at the three queues' cursors (ok
// false when all are exhausted), first advancing each cursor past the slots
// whose summary rules out free: the step of a three-way merge over short
// sorted lists that skips, from the queues' own arrays, every bucket that
// cannot yield.
func nextPrio(qs *[3]*treeQueue, cur *[3]int, free *resource.Vector) (prio int, ok bool) {
	for i, q := range qs {
		if q == nil {
			continue
		}
		j := cur[i]
		for j < len(q.slots) && !q.slots[j].mayFit(free) {
			j++
		}
		cur[i] = j
		if j < len(q.slots) && (!ok || q.slots[j].prio < prio) {
			prio, ok = q.slots[j].prio, true
		}
	}
	return prio, ok
}

// localityTree holds the three-level waiting queues of the FuxiMaster
// scheduler (paper §3.3). Each machine, each rack, and the cluster has its
// own queue; a freed machine consults only its own queue, its rack's queue
// and the cluster queue. The per-machine and per-rack queues live in
// slices indexed by the dense machine/rack ID — a free-up reaches its three
// queues with two slice indexes, no hashing — and an entry is found from its
// key the same way: byApp[app ID][unit index] is that unit's own small table
// of entries by locality node (one row for the usual cluster-level demand, a
// few when the unit also waits on machines or racks).
//
// A satisfied or parked entry stays queued in place, dead, so that re-raised
// demand revives it at its original seq (the legacy FIFO semantics); only an
// unregistered app's entries ever leave, at a tombstone rebuild. Queues
// therefore hold dead entries and whole dead buckets — a machine hint that
// was satisfied and never raised again stays behind for good. What keeps a
// free-up from paying for them is the summaries: each queue carries, inline
// beside its sorted priorities, every bucket's live and physical entry
// counts and a fit bound over its live size classes, plus one fit summary
// for the whole queue. A free-up reads a queue's summary, skips the queue
// when nothing live in it fits, and merges the remaining queues' priorities
// over those arrays alone, dropping every dead or unfit bucket without
// loading it; it walks only buckets that hold a live class the freed
// fragment may fit.
//
// Every waitEntry, sizeClass, treeBucket and treeQueue is a record of the
// tree's own stores (dense.Arena): they come by the chunk, so a promotion
// that rebuilds tens of thousands of entries from full syncs pays a few
// hundred allocations for them, and a record given back is the next one
// handed out. A class, bucket or queue carries the first few cells of its
// arrays inline, so the chunk pays for those too: a rebuild allocates per
// chunk and per app, not per size class, and only a record that outgrows
// its inline cells pays for a heap array. Those slices point into their
// records (the cluster queue's into the tree), so no record and no tree is
// ever copied by value. A record lives until the tree gives it back, and
// nothing may hold it after that: an entry until its app leaves — removeApp
// frees one that is not queued at once, and a queued one is a tombstone
// until its class's rebuild frees it — a bucket and its classes until the
// bucket holds no entry (dropAt), a queue as long as the tree. A departed
// app's units drop their parked lists at unregister, and the candidate
// scratch is rewritten before it is read.
type localityTree struct {
	mq    []*treeQueue // machine ID -> queue
	rq    []*treeQueue // rack ID -> queue
	cq    treeQueue    // the cluster queue, inline: every free-up reads it
	byApp [][]unitWait // app ID -> unit index -> entries
	seq   uint64

	// minCpu/minMem are monotone lower bounds over every size class that
	// ever held an entry (see waitTree.minFit). Monotone-only maintenance
	// keeps them O(1); going stale-low merely disables pruning for a
	// machine, never skips a grantable one. The exact per-queue summaries
	// do not replace them: the scheduler asks minFit before it resolves the
	// machine's rack or loads a queue, and most of failover's assignment
	// calls end there (EXPERIMENTS.md, "Where churn's free-up walk went").
	minCpu, minMem int64

	scratch []*waitEntry // reused candidate buffer (scheduler is single-threaded)

	// The tree's records, each from its own store (see the type comment).
	entryRecs  dense.Arena[waitEntry]
	classRecs  dense.Arena[sizeClass]
	bucketRecs dense.Arena[treeBucket]
	queueRecs  dense.Arena[treeQueue]
}

// unitWait holds one (app, unit)'s entries, keyed by nodeKey(level, node).
type unitWait = dense.Map[*waitEntry]

// nodeKey packs one locality node into a unitWait key.
func nodeKey(level resource.LocalityType, node int32) uint64 {
	return dense.Pack(int32(level), node)
}

func newLocalityTree() *localityTree {
	const maxInt64 = 1<<63 - 1
	return &localityTree{cq: treeQueue{fit: emptyFit}, minCpu: maxInt64, minMem: maxInt64}
}

// minFit implements waitTree (see the interface doc).
func (t *localityTree) minFit() (int64, int64) {
	if t.minCpu == 1<<63-1 {
		return 0, 0 // nothing ever queued: no bound established
	}
	return t.minCpu, t.minMem
}

// queue returns (creating on demand) the queue of one locality node.
func (t *localityTree) queue(level resource.LocalityType, node int32) *treeQueue {
	var slot **treeQueue
	switch level {
	case resource.LocalityMachine:
		for int(node) >= len(t.mq) {
			t.mq = append(t.mq, nil)
		}
		slot = &t.mq[node]
	case resource.LocalityRack:
		for int(node) >= len(t.rq) {
			t.rq = append(t.rq, nil)
		}
		slot = &t.rq[node]
	default:
		return &t.cq
	}
	if *slot == nil {
		*slot = t.queueRecs.New()
		(*slot).fit = emptyFit
	}
	return *slot
}

// peek returns the queue of one locality node without creating it.
func (t *localityTree) peek(level resource.LocalityType, node int32) *treeQueue {
	switch level {
	case resource.LocalityMachine:
		if int(node) < len(t.mq) {
			return t.mq[node]
		}
		return nil
	case resource.LocalityRack:
		if int(node) < len(t.rq) {
			return t.rq[node]
		}
		return nil
	default:
		return &t.cq
	}
}

// enqueue places e into its queue bucket. Fresh entries carry the largest
// seq yet issued and append in O(1) — the only case the current lifecycle
// produces, since satisfied entries revive in place and only unrevivable
// (gone) entries are physically dropped. The out-of-order branch keeps the
// structure correct should a future path re-queue a dropped entry.
func (t *localityTree) enqueue(e *waitEntry) {
	q := t.queue(e.level, e.node)
	c := t.classFor(q, t.bucket(q, e.priority), e.u)
	e.queued = true
	e.parked = false
	if c.opaque {
		t.minCpu, t.minMem = 0, 0 // unknown sizes: pruning off
	} else {
		if c.cpu < t.minCpu {
			t.minCpu = c.cpu
		}
		if c.mem < t.minMem {
			t.minMem = c.mem
		}
	}
	n := len(c.entries)
	if n == 0 || c.entries[n-1].seq < e.seq {
		c.push(e)
		return
	}
	i := sort.Search(n, func(i int) bool { return c.entries[i].seq > e.seq })
	c.entries = append(c.entries, nil)
	copy(c.entries[i+1:], c.entries[i:])
	c.entries[i] = e
	e.cls = c
	c.account(0, 1)
	c.rebuild(t) // renumber positions and bitmaps, count e live
}

// entries returns key's entry table, nil when the key never waited anywhere.
func (t *localityTree) entries(key waitKey) *unitWait {
	if int(key.app) < len(t.byApp) && int(key.unit) < len(t.byApp[key.app]) {
		return &t.byApp[key.app][key.unit]
	}
	return nil
}

// lookup returns key's entry at (level, node), nil when there is none.
func (t *localityTree) lookup(key waitKey, level resource.LocalityType, node int32) *waitEntry {
	if w := t.entries(key); w != nil {
		return w.Get(nodeKey(level, node))
	}
	return nil
}

// growEntries returns key's entry table, making room for it. An app's row is
// sized for all its units the first time one of them waits (st is nil only in
// tree-level tests, which grow one unit at a time).
func (t *localityTree) growEntries(key waitKey, st *appState) *unitWait {
	for int(key.app) >= len(t.byApp) {
		t.byApp = append(t.byApp, nil)
	}
	units := t.byApp[key.app]
	if int(key.unit) >= len(units) {
		n := int(key.unit) + 1
		if st != nil {
			n = max(n, len(st.unitArr))
		}
		if units == nil {
			units = make([]unitWait, n)
		}
		for len(units) < n {
			units = append(units, unitWait{})
		}
		t.byApp[key.app] = units
	}
	return &units[key.unit]
}

// add increments the waiting count for key at (level, node), creating the
// entry at the queue tail when new. Negative deltas decrement, flooring at
// zero. It returns the entry's resulting count.
func (t *localityTree) add(key waitKey, priority int, level resource.LocalityType, node int32, delta int, now sim.Time, st *appState, u *unitState) int {
	e := t.lookup(key, level, node)
	if e == nil {
		if delta <= 0 {
			return 0
		}
		t.seq++
		e = t.entryRecs.New()
		e.key, e.priority, e.seq, e.level, e.node, e.enqueuedAt, e.st, e.u = key, priority, t.seq, level, node, now, st, u
		var slab *dense.Slab[*waitEntry]
		if st != nil {
			slab = &st.waits
		}
		*t.growEntries(key, st).PutFrom(slab, nodeKey(level, node)) = e
	}
	if e.count == 0 && delta > 0 {
		e.enqueuedAt = now // waiting clock restarts after a zero crossing
	}
	wasLive := e.count > 0 && !e.parked
	e.count += delta
	if e.count < 0 {
		e.count = 0
	}
	if e.count > 0 && !e.queued {
		t.enqueue(e)
	} else {
		nowLive := e.count > 0 && !e.parked
		if wasLive && !nowLive {
			noteKilled(e)
		} else if !wasLive && nowLive {
			noteRevived(e)
		}
	}
	return e.count
}

// get returns the current waiting count for key at (level, node).
func (t *localityTree) get(key waitKey, level resource.LocalityType, node int32) int {
	if e := t.lookup(key, level, node); e != nil {
		return e.count
	}
	return 0
}

// setCount forces the waiting count at one node without touching the aging
// clock (full-state reconciliation semantics).
func (t *localityTree) setCount(key waitKey, priority int, level resource.LocalityType, node int32, count int, now sim.Time, st *appState, u *unitState) {
	e := t.lookup(key, level, node)
	if e == nil {
		if count > 0 {
			t.add(key, priority, level, node, count, now, st, u)
		}
		return
	}
	if count < 0 {
		count = 0
	}
	wasLive := e.count > 0 && !e.parked
	e.count = count
	if e.count > 0 && !e.queued {
		t.enqueue(e)
	} else {
		nowLive := e.count > 0 && !e.parked
		if wasLive && !nowLive {
			noteKilled(e)
		} else if !wasLive && nowLive {
			noteRevived(e)
		}
	}
}

// nodesFor appends the locality nodes where key has an entry to buf.
func (t *localityTree) nodesFor(key waitKey, buf []treeIdx) []treeIdx {
	if w := t.entries(key); w != nil {
		for _, c := range w.Cells() {
			buf = append(buf, treeIdx{key: key, level: c.Val.level, node: c.Val.node})
		}
	}
	return buf
}

// removeApp drops every entry belonging to app. Entries still sitting in
// queue buckets become dead tombstones that a class's next rebuild
// discards.
func (t *localityTree) removeApp(app int32) {
	if int(app) >= len(t.byApp) {
		return
	}
	for ui := range t.byApp[app] {
		for _, c := range t.byApp[app][ui].Cells() {
			e := c.Val
			if !e.queued {
				t.entryRecs.Free(e)
				continue
			}
			if e.count > 0 && !e.parked {
				noteKilled(e)
			}
			e.count = 0
			e.gone = true
			// The tombstone may sit in its queue until the next rebuild; it
			// must not keep the app's state — every unit and table — alive
			// that long.
			e.st, e.u = nil, nil
			e.cls.tomb++
			e.cls.maybeRebuild(t)
		}
	}
	t.byApp[app] = nil
}

// forEachCandidate streams the live waiting entries eligible to receive
// resources freed on machine (in rack): the machine queue, the rack queue,
// and the cluster queue, in (aged priority, level, seq) order.
// Machine-level waiters precede rack/cluster waiters at equal priority
// (paper §3.3). With aging disabled (the common case) the buckets are
// already in output order, nothing is sorted or copied, and the walk stops
// as soon as fn returns false — a free-up that is exhausted after two
// grants touches two entries plus the skipped prefix, not the whole queue.
// With aging enabled the live entries are collected and re-ranked by
// effective priority exactly like the legacy tree.
//
// Without aging, the queue and bucket summaries decide what is read: a
// queue with nothing live that fits free is dropped on its summary, and the
// priority merge advances past every dead or unfit bucket on the queue's
// slot array, so only a bucket with a live class that may fit is loaded.
// Skipped buckets would have yielded nothing, so the stream is unchanged.
func (t *localityTree) forEachCandidate(machine, rack int32, now sim.Time, agingBoost float64, free *resource.Vector, fn func(*waitEntry) bool) {
	qs := [3]*treeQueue{
		t.peek(resource.LocalityMachine, machine),
		t.peek(resource.LocalityRack, rack),
		&t.cq,
	}
	if agingBoost > 0 {
		out := t.scratch[:0]
		for _, q := range qs {
			if q == nil {
				continue
			}
			for i := range q.slots {
				if q.slots[i].live > 0 {
					out = q.slots[i].b.appendLive(out)
				}
			}
		}
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
		t.scratch = out
		for _, e := range out {
			if !fn(e) {
				return
			}
		}
		return
	}
	// Merge the three queues' sorted priority lists, walking buckets in
	// (priority, level, seq) order — already the output order. fn grants and
	// parks but never queues or rebuilds, so no slot moves under the
	// cursors; free only shrinks, so a bucket skipped once stays unfit.
	for i, q := range qs {
		if q != nil && !q.fit.mayFit(free) {
			qs[i] = nil
		}
	}
	var cur [3]int
	for {
		p, ok := nextPrio(&qs, &cur, free)
		if !ok {
			return
		}
		for i, q := range qs {
			if q == nil || cur[i] >= len(q.slots) || q.slots[cur[i]].prio != p {
				continue
			}
			s := &q.slots[cur[i]]
			cur[i]++
			if s.mayFit(free) && !s.b.walk(free, fn) {
				return
			}
		}
	}
}

// totalWaiting sums all waiting counts for a key across the tree (used in
// tests and state dumps).
func (t *localityTree) totalWaiting(key waitKey) int {
	n := 0
	if w := t.entries(key); w != nil {
		for _, c := range w.Cells() {
			n += c.Val.count
		}
	}
	return n
}

// waitingByLevel reports the per-level aggregate counts for a key, mirroring
// the paper's Figure 5 view of the scheduling tree.
func (t *localityTree) waitingByLevel(key waitKey) (machine, rack, cluster int) {
	w := t.entries(key)
	if w == nil {
		return
	}
	for _, c := range w.Cells() {
		switch e := c.Val; e.level {
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
