package pangu

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/resource"
	"repro/internal/topology"
)

func testTop(t *testing.T, racks, perRack int) *topology.Topology {
	t.Helper()
	top, err := topology.Build(topology.Spec{
		Racks: racks, MachinesPerRack: perRack,
		MachineCapacity: resource.New(12000, 96*1024),
	})
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestCreateChunking(t *testing.T) {
	fs := New(testTop(t, 4, 10), rand.New(rand.NewSource(1)))
	f, err := fs.Create("pangu://input", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Chunks) != 4 { // 256+256+256+232
		t.Errorf("chunks = %d, want 4", len(f.Chunks))
	}
	var total int64
	for _, c := range f.Chunks {
		total += c.SizeMB
	}
	if total != 1000 {
		t.Errorf("chunk sizes sum to %d, want 1000", total)
	}
	if last := f.Chunks[3].SizeMB; last != 232 {
		t.Errorf("tail chunk = %d, want 232", last)
	}
}

func TestReplicasDistinctMachinesAndRackAware(t *testing.T) {
	top := testTop(t, 4, 10)
	fs := New(top, rand.New(rand.NewSource(2)))
	f, err := fs.Create("f", 256*20)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range f.Chunks {
		if len(c.Replicas) != 3 {
			t.Fatalf("chunk %d has %d replicas", c.Index, len(c.Replicas))
		}
		seen := map[int32]bool{}
		for _, m := range c.Replicas {
			if seen[m] {
				t.Fatalf("chunk %d: duplicate replica machine %d", c.Index, m)
			}
			seen[m] = true
		}
		if top.RackIDOf(c.Replicas[0]) == top.RackIDOf(c.Replicas[1]) {
			t.Fatalf("chunk %d: first two replicas on same rack", c.Index)
		}
	}
}

func TestSingleRackFallback(t *testing.T) {
	// With one rack, rack-aware placement can't be satisfied; replicas must
	// still be distinct machines.
	fs := New(testTop(t, 1, 5), rand.New(rand.NewSource(3)))
	f, err := fs.Create("f", 256)
	if err != nil {
		t.Fatal(err)
	}
	c := f.Chunks[0]
	if len(c.Replicas) != 3 {
		t.Fatalf("replicas = %d", len(c.Replicas))
	}
}

func TestReplicasCappedByClusterSize(t *testing.T) {
	fs := New(testTop(t, 1, 2), rand.New(rand.NewSource(4)))
	f, err := fs.Create("f", 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(f.Chunks[0].Replicas); got != 2 {
		t.Errorf("replicas = %d, want 2 (cluster size)", got)
	}
}

func TestDuplicateAndBadCreate(t *testing.T) {
	fs := New(testTop(t, 2, 2), rand.New(rand.NewSource(5)))
	if _, err := fs.Create("f", 10); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("f", 10); err == nil {
		t.Error("duplicate create accepted")
	}
	if _, err := fs.Create("g", 0); err == nil {
		t.Error("zero-size create accepted")
	}
}

func TestOpenAndDelete(t *testing.T) {
	fs := New(testTop(t, 2, 4), rand.New(rand.NewSource(6)))
	if _, err := fs.Open("missing"); err == nil {
		t.Error("open of missing file succeeded")
	}
	f, _ := fs.Create("f", 512)
	got, err := fs.Open("f")
	if err != nil || got != f {
		t.Fatalf("open: %v", err)
	}
	m := f.Chunks[0].Replicas[0]
	if fs.UsageMB(m) == 0 {
		t.Error("usage not accounted")
	}
	fs.Delete("f")
	if _, err := fs.Open("f"); err == nil {
		t.Error("open after delete succeeded")
	}
	var totalUsage int64
	for m := range int32(fs.top.Size()) {
		totalUsage += fs.UsageMB(m)
	}
	if totalUsage != 0 {
		t.Errorf("usage after delete = %d, want 0", totalUsage)
	}
	fs.Delete("f") // idempotent
}

func TestChunkLocations(t *testing.T) {
	fs := New(testTop(t, 2, 4), rand.New(rand.NewSource(7)))
	f, _ := fs.Create("f", 600)
	locs := fs.ChunkLocations("f", 1)
	if len(locs) != 3 {
		t.Fatalf("locations = %v", locs)
	}
	if fs.ChunkLocations("f", 99) != nil {
		t.Error("out-of-range index returned locations")
	}
	if fs.ChunkLocations("nope", 0) != nil {
		t.Error("missing file returned locations")
	}
	_ = f
}

func TestLoseMachine(t *testing.T) {
	fs := New(testTop(t, 3, 5), rand.New(rand.NewSource(8)))
	f, _ := fs.Create("f", 256*10)
	victim := f.Chunks[0].Replicas[0]
	lost := fs.LoseMachine(victim)
	if lost == 0 {
		t.Fatal("no chunks lost a replica")
	}
	for _, c := range f.Chunks {
		for _, m := range c.Replicas {
			if m == victim {
				t.Fatalf("chunk %d still lists lost machine", c.Index)
			}
		}
		if len(c.Replicas) < 2 {
			t.Fatalf("chunk %d under-replicated below 2", c.Index)
		}
	}
}

func TestPlacementUsesAllMachinesEventually(t *testing.T) {
	top := testTop(t, 4, 5)
	fs := New(top, rand.New(rand.NewSource(9)))
	if _, err := fs.Create("big", 256*200); err != nil {
		t.Fatal(err)
	}
	unused := 0
	for m := range int32(top.Size()) {
		if fs.UsageMB(m) == 0 {
			unused++
		}
	}
	if unused > 2 {
		t.Errorf("%d of %d machines unused after 200 chunks", unused, top.Size())
	}
}

func TestUsageOutsideTopologyIsZero(t *testing.T) {
	fs := New(testTop(t, 1, 2), rand.New(rand.NewSource(10)))
	if _, err := fs.Create("f", 10); err != nil {
		t.Fatal(err)
	}
	if fs.UsageMB(-1) != 0 || fs.UsageMB(2) != 0 {
		t.Error("a machine outside the topology stores data")
	}
}

// legacyPlace is the name-keyed placement the ID-keyed one replaced: it draws
// a machine as top.Machines()[rng.Intn(n)] and compares racks by name.
func legacyPlace(top *topology.Topology, rng *rand.Rand, replicas int) []string {
	machines := top.Machines()
	n := min(replicas, len(machines))
	used := map[string]bool{}
	pick := func(pref func(string) bool) string {
		if pref != nil {
			for i := 0; i < 16; i++ {
				c := machines[rng.Intn(len(machines))]
				if !used[c] && pref(c) {
					return c
				}
			}
		}
		for {
			c := machines[rng.Intn(len(machines))]
			if !used[c] {
				return c
			}
		}
	}
	first := machines[rng.Intn(len(machines))]
	chosen := []string{first}
	used[first] = true
	if n >= 2 {
		rackOf := func(name string) int32 { return top.RackIDOf(top.MachineID(name)) }
		m := pick(func(c string) bool { return rackOf(c) != rackOf(first) })
		chosen = append(chosen, m)
		used[m] = true
	}
	for len(chosen) < n {
		m := pick(nil)
		chosen = append(chosen, m)
		used[m] = true
	}
	return chosen
}

// TestPlacementMatchesNameKeyedOracle: a machine ID is its index in the
// sorted name list, so every draw lands on the machine the name-keyed
// placement chose, chunk by chunk, on one rack and on several.
func TestPlacementMatchesNameKeyedOracle(t *testing.T) {
	for _, shape := range [][2]int{{1, 2}, {1, 5}, {3, 4}, {7, 13}} {
		for seed := int64(1); seed <= 20; seed++ {
			top := testTop(t, shape[0], shape[1])
			fs := New(top, rand.New(rand.NewSource(seed)))
			ref := rand.New(rand.NewSource(seed))
			f, err := fs.Create("f", 256*30)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range f.Chunks {
				want := legacyPlace(top, ref, DefaultReplicas)
				got := make([]string, len(c.Replicas))
				for i, m := range c.Replicas {
					got[i] = top.MachineName(m)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("racks %v seed %d chunk %d: replicas %v, name-keyed %v", shape, seed, c.Index, got, want)
				}
			}
		}
	}
}
