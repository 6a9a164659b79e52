package master

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/resource"
	"repro/internal/topology"
)

// clusterPlaceOracle is placeImmediate's cluster-scope branch as it was before
// a full rack was stepped over by its run of IDs: every machine of a pass is
// looked at, and one whose rack cannot fit is passed over after a rack lookup
// (a remembered skipRack saves the aggregate's fit test). It returns what it
// granted and how many machines it looked at.
func clusterPlaceOracle(s *Scheduler, st *appState, u *unitState, want int, out *[]Decision) (int, int64) {
	if want > u.headroom() {
		want = u.headroom()
	}
	n := int(s.nMach)
	if want <= 0 || n == 0 {
		return 0, 0
	}
	granted, probes := 0, int64(0)
	perPass := (want + n - 1) / n
	for pass := 0; pass < n && granted < want; pass++ {
		if s.totalFree.FitCount(u.def.Size) == 0 {
			break
		}
		before := granted
		skipRack := int32(-1)
		for i := 0; i < n && granted < want; i++ {
			m := int32((s.cursor + i) % n)
			probes++
			rack := s.top.RackIDOf(m)
			if rack == skipRack {
				continue
			}
			if s.rackFree[rack].FitCount(u.def.Size) == 0 {
				skipRack = rack
				continue
			}
			if !s.schedulable(m) {
				continue
			}
			k := min(int(s.free[m].FitCount(u.def.Size)), want-granted, perPass)
			if k > 0 {
				s.grantOn(st, u, m, k, out)
				granted += k
			}
		}
		if granted == before {
			break
		}
	}
	s.cursor = (s.cursor + 1) % n
	return granted, probes
}

// interleavedTop is a topology.New cluster whose racks interleave in machine
// ID order: names are handed out in runs of one to five, each run to a random
// one of twelve racks, so most racks are several runs apart and a run's end is
// rarely its rack's last machine. Capacities vary by machine.
func interleavedTop(t *testing.T, rng *rand.Rand, machines int) *topology.Topology {
	t.Helper()
	ms := make([]topology.Machine, 0, machines)
	for len(ms) < machines {
		rack := fmt.Sprintf("r%02d", rng.Intn(12))
		for run := 1 + rng.Intn(5); run > 0 && len(ms) < machines; run-- {
			ms = append(ms, topology.Machine{
				Name: fmt.Sprintf("m%03d", len(ms)), Rack: rack,
				Capacity: resource.New(int64(1000+rng.Intn(8)*500), int64(4096+rng.Intn(8)*2048)),
			})
		}
	}
	top, err := topology.New(ms)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// TestClusterPlacementOracle drives two schedulers over one interleaved
// topology through the same seeded stream — cluster-scope placements,
// releases, machines going down and up, blacklisting — placing through the
// shipped loop on one and through clusterPlaceOracle on the other. Every
// placement must grant the same containers on the same machines, leave the
// same cursor, and look at no more machines than the oracle did.
func TestClusterPlacementOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		top := interleavedTop(t, rng, 60+rng.Intn(60))
		got, want := NewScheduler(top, Options{}), NewScheduler(top, Options{})
		for _, s := range []*Scheduler{got, want} {
			for a := 0; a < 4; a++ {
				mustRegister(t, s, fmt.Sprintf("app-%d", a), "",
					unit(1, 1, 400, 250, 1024), unit(2, 2, 400, 500, 2048), unit(3, 3, 400, 1500, 3072))
			}
		}
		var gotProbes, wantProbes int64
		var gotOut, wantOut []Decision
		for step := 0; step < 3000; step++ {
			app, uid := fmt.Sprintf("app-%d", rng.Intn(4)), 1+rng.Intn(3)
			gst, gu, _ := got.lookup(app, uid)
			wst, wu, _ := want.lookup(app, uid)
			gotOut, wantOut = gotOut[:0], wantOut[:0]
			switch op := rng.Intn(10); {
			case op < 6:
				n := 1 + rng.Intn(3*top.Size())
				before := got.clusterProbes
				g := got.placeImmediate(gst, gu, resource.LocalityCluster, 0, n, &gotOut)
				w, probes := clusterPlaceOracle(want, wst, wu, n, &wantOut)
				if g != w {
					t.Fatalf("seed %d step %d: placing %d of %s/%d granted %d, oracle %d", seed, step, n, app, uid, g, w)
				}
				if p := got.clusterProbes - before; p > probes {
					t.Fatalf("seed %d step %d: looked at %d machines, oracle %d", seed, step, p, probes)
				}
				gotProbes += got.clusterProbes - before
				wantProbes += probes
			case op < 8:
				cells := gu.granted.Cells()
				if len(cells) == 0 {
					continue
				}
				c := cells[rng.Intn(len(cells))]
				k := 1 + rng.Intn(c.Val)
				if err := got.releaseChecked(gst, gu, int32(c.Key), k); err != nil {
					t.Fatal(err)
				}
				if err := want.releaseChecked(wst, wu, int32(c.Key), k); err != nil {
					t.Fatal(err)
				}
			case op < 9:
				m := int32(rng.Intn(top.Size()))
				if got.down[m] {
					gotOut, wantOut = got.machineUpID(m), want.machineUpID(m)
				} else {
					gotOut, wantOut = got.machineDownID(m), want.machineDownID(m)
				}
			default:
				m, revoke := int32(rng.Intn(top.Size())), rng.Intn(2) == 0
				gotOut = got.setBlacklistedID(m, !got.black[m], revoke)
				wantOut = want.setBlacklistedID(m, !want.black[m], revoke)
			}
			if !slices.Equal(gotOut, wantOut) {
				t.Fatalf("seed %d step %d: decisions %v, oracle %v", seed, step, gotOut, wantOut)
			}
			if got.cursor != want.cursor {
				t.Fatalf("seed %d step %d: cursor %d, oracle %d", seed, step, got.cursor, want.cursor)
			}
		}
		checkInv(t, got)
		t.Logf("seed %d, %d machines: looked at %d machines, oracle %d", seed, top.Size(), gotProbes, wantProbes)
	}
}

// TestClusterPlacementStepsOverFullRacks pins what cluster-scope placement
// looks at on a fragmented, saturated cluster: every machine keeps a 20-milli
// CPU sliver, so the cluster's total could fit 40 units of 500 milli while no
// rack's could fit one. A rack that cannot fit costs one look, not twenty.
func TestClusterPlacementStepsOverFullRacks(t *testing.T) {
	s := NewScheduler(testTop(t, 50, 20), Options{})
	mustRegister(t, s, "filler", "", unit(1, 1, 1000, 11980, 1024))
	mustRegister(t, s, "small", "", unit(1, 1, 100, 500, 1024))
	if g := grantTotal(mustDemand(t, s, "filler", 1, clusterHint(1000))); g != 1000 {
		t.Fatalf("filler got %d machines, want all 1000", g)
	}
	free := s.top.MachineID("r030m004")
	if err := s.Release("filler", 1, "r030m004", 1); err != nil {
		t.Fatal(err)
	}
	st, u, _ := s.lookup("small", 1)
	var out []Decision
	// Racks 0–29 one look each, then rack 30's machines 0–4.
	s.cursor = 0
	before := s.clusterProbes
	if g := s.placeImmediate(st, u, resource.LocalityCluster, 0, 1, &out); g != 1 || out[0].MachineID != free {
		t.Fatalf("placed %d: %v, want one container on r030m004", g, out)
	}
	if p := s.clusterProbes - before; p != 35 {
		t.Fatalf("looked at %d machines to place one container, want 35", p)
	}
	// r030m004 still fits 23 more, so fill it; then no rack fits at all and a
	// pass looks at each of the 50 racks once before it gives up.
	if g := s.placeImmediate(st, u, resource.LocalityCluster, 0, 23, &out); g != 23 {
		t.Fatalf("placed %d of the 23 that fit on r030m004", g)
	}
	s.cursor = 0
	before = s.clusterProbes
	if g := s.placeImmediate(st, u, resource.LocalityCluster, 0, 1, &out); g != 0 {
		t.Fatalf("placed %d on a cluster whose racks are all full", g)
	}
	if p := s.clusterProbes - before; p != 50 {
		t.Fatalf("looked at %d machines on a cluster of 50 full racks, want 50", p)
	}
}
