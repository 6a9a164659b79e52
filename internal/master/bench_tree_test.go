package master

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/dense"
	"repro/internal/lockservice"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/transport"
)

// BenchmarkTreeAdd measures finding an (app, unit)'s existing wait entry and
// moving its count — what every DemandUpdate hint costs the tree — at churn's
// shape: 2,500 apps × 40 units, each with one cluster-level entry, visited in
// rotation so each call finds its entry as cold as the lane does. One
// iteration is a re-demand (count 0 → 1) followed by its withdrawal.
func BenchmarkTreeAdd(b *testing.B) {
	const apps, units = 2500, 40
	t := newLocalityTree()
	for a := int32(0); a < apps; a++ {
		for u := int32(0); u < units; u++ {
			t.add(waitKey{app: a, unit: u}, 100, resource.LocalityCluster, 0, 1, 0, nil, nil)
			t.add(waitKey{app: a, unit: u}, 100, resource.LocalityCluster, 0, -1, 0, nil, nil)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Stride through the apps (as a round's demand does) rather than
		// through one app's units.
		k := waitKey{app: int32(i % apps), unit: int32(i / apps % units)}
		t.add(k, 100, resource.LocalityCluster, 0, 1, 0, nil, nil)
		t.add(k, 100, resource.LocalityCluster, 0, -1, 0, nil, nil)
	}
}

// churnShape is a locality tree in the churn lane's steady state, at its
// footprint: 5,000 machines in 125 racks and the scale harness's three unit
// sizes. Every machine and rack queue holds machine- and rack-level hints
// that were satisfied and never raised again — dead, kept for revival —
// while the cluster queue holds live demand at four priorities, with the
// small size drained everywhere but at the last. Its freed fragments fit
// only the small size, the small and medium ones, or all three.
type churnShape struct {
	tree  *localityTree
	frees [3]resource.Vector
	take  func(*waitEntry) bool
}

func newChurnShape() *churnShape {
	const machines, racks, apps = 5000, 125, 600
	cs := &churnShape{
		tree: newLocalityTree(),
		frees: [3]resource.Vector{
			resource.New(300, 1200), resource.New(600, 2500), resource.New(1000, 4096)},
		// A free-up's one grant exhausts its fragment.
		take: func(*waitEntry) bool { return false },
	}
	units := make([]unitState, apps*3)
	prio := func(a, u int) int { return 1 + (a+u)%4 }
	add := func(a, u int, level resource.LocalityType, node int32, n int) {
		us := &units[a*3+u]
		us.def = resource.ScheduleUnit{ID: u + 1, Priority: prio(a, u), Size: treeFuzzSizes[(a+u)%3]}
		cs.tree.add(waitKey{app: int32(a), unit: int32(u)}, prio(a, u), level, node, n, 0, nil, us)
	}
	for u := 0; u < 3; u++ {
		for m := 0; m < machines; m++ {
			add(m%apps, u, resource.LocalityMachine, int32(m), 1)
			add(m%apps, u, resource.LocalityMachine, int32(m), -1)
		}
		for r := 0; r < racks; r++ {
			add(r*7%apps, u, resource.LocalityRack, int32(r), 1)
			add(r*7%apps, u, resource.LocalityRack, int32(r), -1)
		}
		for a := 0; a < apps; a++ {
			add(a, u, resource.LocalityCluster, 0, 2)
			if (a+u)%3 == 2 && prio(a, u) != 4 {
				add(a, u, resource.LocalityCluster, 0, -2)
			}
		}
	}
	return cs
}

// freeUp walks the candidates for the i-th free-up: machine i mod 5,000,
// its rack, and one of the three fragments in rotation.
func (cs *churnShape) freeUp(i int) {
	m := int32(i % 5000)
	free := cs.frees[i%3]
	cs.tree.forEachCandidate(m, m/40, 0, 0, &free, cs.take)
}

// TestChurnShapeFreeUpAllocatesNothing: the free-up walk allocates nothing.
func TestChurnShapeFreeUpAllocatesNothing(t *testing.T) {
	cs := newChurnShape()
	checkTreeSummaries(t, cs.tree)
	i := 0
	if n := testing.AllocsPerRun(300, func() { cs.freeUp(i); i++ }); n != 0 {
		t.Fatalf("a free-up allocates %v times", n)
	}
}

// TestPromotionRebuildAllocatesPerChunk bounds what a promoted master pays to
// rebuild the locality tree from full syncs: on a fresh scheduler, 200 apps
// of 8 units re-register from the checkpoint and sync demand at the cluster
// and on one machine per unit — 3,200 wait entries. The cost of the syncs'
// demand (the same run with empty syncs subtracted) reads 0.22 allocations
// an entry, 0.49 while the classes, buckets and queues grew their arrays
// from nil and 1.57 when every entry and queue node was its own object; the
// bound sits ~15% above. What is left is each app's entry-table row and
// windows and the arrays of the classes that outgrow their inline entries
// (this shape queues 40 entries a machine).
func TestPromotionRebuildAllocatesPerChunk(t *testing.T) {
	const apps, units = 200, 8
	eng := sim.NewEngine(1)
	net := transport.NewNet(eng)
	m := NewMaster(Config{ProcessName: "fm-1"}, eng, net, lockservice.New(eng), testTop(t, 4, 10), NewCheckpointStore())
	eng.Run(10 * sim.Millisecond)
	machines := m.top.Machines()
	defs := make([]resource.ScheduleUnit, units)
	for i := range defs {
		defs[i] = resource.ScheduleUnit{ID: i + 1, Priority: 1 + i%3, MaxCount: 10, Size: resource.New(500, 2048)}
	}
	names := make([]string, apps)
	syncs := make([]protocol.FullDemandSync, apps)
	for a := range syncs {
		names[a] = fmt.Sprintf("app-%03d", a)
		s := &syncs[a]
		s.App, s.Units, s.Seq = names[a], defs, 1
		for i, d := range defs {
			s.Demand = append(s.Demand,
				protocol.UnitHint{UnitID: d.ID, LocalityHint: resource.LocalityHint{Type: resource.LocalityMachine, Node: int32((a + i) % len(machines)), Count: 1}},
				protocol.UnitHint{UnitID: d.ID, LocalityHint: resource.LocalityHint{Type: resource.LocalityCluster, Count: 2}})
		}
	}
	empty := make([]protocol.FullDemandSync, apps)
	for a := range empty {
		empty[a] = protocol.FullDemandSync{App: names[a], Units: defs, Seq: 1}
	}
	promote := func(syncs []protocol.FullDemandSync) {
		opts := m.cfg.Sched
		opts.Clock = eng.Now
		m.sched = NewScheduler(m.top, opts)
		m.recovering = true
		for a := range syncs {
			if _, err := m.registerApp(transport.None, names[a], "", defs); err != nil {
				t.Fatal(err)
			}
		}
		for a := range syncs {
			m.handleFullSync(net.Lookup(names[a]), &syncs[a])
		}
	}
	promote(syncs)
	if n := m.sched.Waiting(names[0], 1); n != 3 {
		t.Fatalf("after the rebuild app-000 unit 1 waits for %d, want 3", n)
	}
	base := testing.AllocsPerRun(5, func() { promote(empty) })
	full := testing.AllocsPerRun(5, func() { promote(syncs) })
	perEntry := (full - base) / (apps * units * 2)
	t.Logf("rebuild: %.0f allocations with demand, %.0f without: %.3f an entry", full, base, perEntry)
	if perEntry > 0.26 {
		t.Fatalf("rebuilding the tree from full syncs costs %.3f allocations a wait entry, want at most 0.26", perEntry)
	}
}

// promotionTree is the locality tree a promoted master rebuilds from full
// syncs, at the shape the inline record arrays are sized for: 4,000
// one-unit apps each waiting on four of 2,000 machines, so that every
// machine queue holds eight entries. A machine's apps spread over one to
// four priorities and two of the harness's three unit sizes, so its classes
// hold one to four entries and its buckets one or two classes. No class,
// bucket or queue outgrows its inline array.
type promotionTree struct {
	apps []appState
}

const promotionMachines, promotionApps = 2000, 4000

func newPromotionTree() *promotionTree {
	p := &promotionTree{apps: make([]appState, promotionApps)}
	for a := range p.apps {
		st := &p.apps[a]
		st.id = int32(a)
		i, k := a/500, 1+a%500%4 // the app's place on its machines, their priority count
		st.unitArr = st.unit0[:1]
		st.unitArr[0].def = resource.ScheduleUnit{ID: 1, Priority: 1 + i%k, Size: treeFuzzSizes[(i/4+a%500)%3]}
	}
	return p
}

// build rebuilds the tree from the apps' demand, as their full syncs do.
func (p *promotionTree) build() *localityTree {
	t := newLocalityTree()
	for a := range p.apps {
		st := &p.apps[a]
		st.waits = dense.Slab[*waitEntry]{}
		st.waits.Expect(len(st.unitArr))
		u := &st.unitArr[0]
		for k := 0; k < 4; k++ {
			t.add(waitKey{app: st.id}, u.def.Priority, resource.LocalityMachine, int32((a+500*k)%promotionMachines), 1, 0, st, u)
		}
	}
	return t
}

// arenaChunks is how many chunks a dense.Arena of records of recBytes each
// cuts to carve n records: dense's rule, chunks doubling from 8 records up
// to the most records that fit in 64 KiB.
func arenaChunks(n int, recBytes uintptr) int {
	most := max(int(64<<10/recBytes), 1)
	chunks := 0
	for carved := 0; carved < n; chunks++ {
		carved += min(max(carved, 8), most)
	}
	return chunks
}

// appendGrowths is how many arrays appending n elements one at a time
// allocates, as the tree's app and machine indexes grow.
func appendGrowths[T any](n int) int {
	var s []T
	grows := 0
	for range n {
		if len(s) == cap(s) {
			grows++
		}
		s = append(s, *new(T))
	}
	return grows
}

// TestPromotionTreeAllocatesPerChunkAndApp bounds a promotion-shaped tree
// rebuild's allocations by what it cannot avoid: its four stores' chunks,
// one entry-table row and one table window per app, and the growths of
// the tree's app and machine indexes. Classes, buckets and queues that grew
// their arrays from nil paid about five objects a class on top of that.
func TestPromotionTreeAllocatesPerChunkAndApp(t *testing.T) {
	p := newPromotionTree()
	tr := p.build()
	checkTreeSummaries(t, tr)
	var shape [5]int // queues by priority count
	for _, q := range tr.mq {
		if n := len(q.slots); n < len(shape) {
			shape[n]++
		}
	}
	if shape[1] != 500 || shape[2] != 500 || shape[3] != 500 || shape[4] != 500 {
		t.Fatalf("machine queues by priority count %v, want 500 each of 1–4", shape[1:])
	}
	chunks := arenaChunks(tr.entryRecs.Carved(), unsafe.Sizeof(waitEntry{})) +
		arenaChunks(tr.classRecs.Carved(), unsafe.Sizeof(sizeClass{})) +
		arenaChunks(tr.bucketRecs.Carved(), unsafe.Sizeof(treeBucket{})) +
		arenaChunks(tr.queueRecs.Carved(), unsafe.Sizeof(treeQueue{}))
	bound := float64(1 + chunks + 2*promotionApps + appendGrowths[[]unitWait](promotionApps) + appendGrowths[*treeQueue](promotionMachines))
	n := testing.AllocsPerRun(3, func() { p.build() })
	t.Logf("rebuild: %.0f allocations, bound %.0f (%d store chunks, %d classes)", n, bound, chunks, tr.classRecs.Carved())
	if n > bound {
		t.Fatalf("rebuilding a promotion-shaped tree costs %.0f allocations, want at most %.0f: the stores' chunks, two per app and the index growths", n, bound)
	}
}

// BenchmarkPromotionTreeRebuild rebuilds the promotion-shaped tree of
// TestPromotionTreeAllocatesPerChunkAndApp once per iteration: 16,000 wait
// entries on 2,000 machine queues.
func BenchmarkPromotionTreeRebuild(b *testing.B) {
	p := newPromotionTree()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.build()
	}
}
