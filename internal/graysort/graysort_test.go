package graysort

import (
	"math"
	"math/rand"
	"testing"
)

func TestHardwareModelScalesWithData(t *testing.T) {
	small := HardwareModel(PaperGraySortCluster, SortSpec{DataTB: 50})
	big := HardwareModel(PaperGraySortCluster, SortSpec{DataTB: 100})
	if big.TotalSec() <= small.TotalSec() {
		t.Error("more data should take longer")
	}
	ratio := big.TotalSec() / small.TotalSec()
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("scaling ratio = %.2f, want ~2", ratio)
	}
}

func TestHardwareModelScalesWithNodes(t *testing.T) {
	half := PaperGraySortCluster
	half.Nodes = 2500
	a := HardwareModel(PaperGraySortCluster, SortSpec{DataTB: 100})
	b := HardwareModel(half, SortSpec{DataTB: 100})
	if b.TotalSec() <= a.TotalSec() {
		t.Error("fewer nodes should take longer")
	}
	if (HardwareModel(ClusterSpec{}, SortSpec{DataTB: 1})) != (PhaseTimes{}) {
		t.Error("zero-node model should be zero")
	}
}

func TestHardwareModelCompression(t *testing.T) {
	plain := HardwareModel(PaperPetaSortCluster, SortSpec{DataTB: 1000, SpillCompression: 1})
	comp := HardwareModel(PaperPetaSortCluster, SortSpec{DataTB: 1000, SpillCompression: 2})
	if comp.ShuffleSec >= plain.ShuffleSec {
		t.Error("compression should shrink shuffle")
	}
	// Spill writes/reads shrink with compression but the raw input read and
	// final output write do not, so the disk phases shrink by less than 2x.
	if comp.ReadSortSec >= plain.ReadSortSec {
		t.Error("compression should shrink the spill-write share of the map phase")
	}
	if comp.ReadSortSec <= plain.ReadSortSec/2 {
		t.Error("raw input read must not compress away")
	}
}

func mustEstimate(t *testing.T, system string, c ClusterSpec, s SortSpec, overhead, overlap float64) Result {
	t.Helper()
	r, err := Estimate(system, c, s, overhead, overlap)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestEstimateShape(t *testing.T) {
	// With the same hardware, the framework with lower overhead wins.
	fuxi := mustEstimate(t, "fuxi", PaperGraySortCluster, SortSpec{DataTB: 100}, 1.3, 0.3)
	hadoop := mustEstimate(t, "hadoop", PaperGraySortCluster, SortSpec{DataTB: 100}, 2.6, 0.3)
	if fuxi.ThroughputTB <= hadoop.ThroughputTB {
		t.Error("lower overhead must give higher throughput")
	}
	if fuxi.ElapsedSec <= 0 || fuxi.ThroughputTB <= 0 {
		t.Errorf("bad result %+v", fuxi)
	}
	// Overhead below 1 clamps.
	r := mustEstimate(t, "x", PaperGraySortCluster, SortSpec{DataTB: 100}, 0.1, 0)
	if r.Overhead != 1 {
		t.Errorf("overhead = %v, want clamped 1", r.Overhead)
	}
	// Overlap cannot beat the slowest phase.
	p := HardwareModel(PaperGraySortCluster, SortSpec{DataTB: 100})
	r2 := mustEstimate(t, "y", PaperGraySortCluster, SortSpec{DataTB: 100}, 1, 0.99)
	if r2.ElapsedSec < maxPhase(p)-1e-9 {
		t.Errorf("elapsed %.1f beats slowest phase %.1f", r2.ElapsedSec, maxPhase(p))
	}
}

// TestEstimateRejectsDegenerateSpecs is the regression test for the
// +Inf-throughput bug: Estimate with Nodes <= 0 used to report
// ElapsedSec = 0 and ThroughputTB = +Inf instead of failing.
func TestEstimateRejectsDegenerateSpecs(t *testing.T) {
	noNodes := PaperGraySortCluster
	noNodes.Nodes = 0
	noDisks := PaperGraySortCluster
	noDisks.DisksPerNode = 0
	noNet := PaperGraySortCluster
	noNet.NetMBps = 0
	cases := []struct {
		name    string
		cluster ClusterSpec
		spec    SortSpec
		wantErr bool
	}{
		{"zero nodes", noNodes, SortSpec{DataTB: 100}, true},
		{"negative nodes", ClusterSpec{Nodes: -5, DisksPerNode: 12, DiskMBps: 100, NetMBps: 250}, SortSpec{DataTB: 100}, true},
		{"zero disks", noDisks, SortSpec{DataTB: 100}, true},
		{"zero net", noNet, SortSpec{DataTB: 100}, true},
		{"zero data", PaperGraySortCluster, SortSpec{}, true},
		{"negative data", PaperGraySortCluster, SortSpec{DataTB: -1}, true},
		{"compression below 1 clamps", PaperGraySortCluster, SortSpec{DataTB: 100, SpillCompression: 0.25}, false},
		{"valid", PaperGraySortCluster, SortSpec{DataTB: 100, SpillCompression: 1}, false},
	}
	for _, tc := range cases {
		r, err := Estimate(tc.name, tc.cluster, tc.spec, 1.5, 0.2)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: want error, got %+v", tc.name, r)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
			continue
		}
		if r.ElapsedSec <= 0 || math.IsInf(r.ThroughputTB, 0) || r.ThroughputTB <= 0 {
			t.Errorf("%s: degenerate result %+v", tc.name, r)
		}
	}
	// SpillCompression < 1 clamps to no compression: same estimate as 1x.
	clamped := mustEstimate(t, "c", PaperGraySortCluster, SortSpec{DataTB: 100, SpillCompression: 0.25}, 1.5, 0.2)
	plain := mustEstimate(t, "p", PaperGraySortCluster, SortSpec{DataTB: 100, SpillCompression: 1}, 1.5, 0.2)
	if clamped.ElapsedSec != plain.ElapsedSec {
		t.Errorf("compression < 1 should clamp to 1: %v vs %v", clamped.ElapsedSec, plain.ElapsedSec)
	}
}

func TestSortKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	recs := Generate(rng, 1000)
	if recs.Count() != 1000 {
		t.Fatalf("count = %d", recs.Count())
	}
	if Sorted(recs) {
		t.Fatal("random records already sorted (suspicious)")
	}
	sorted := Sort(recs)
	if !Sorted(sorted) {
		t.Fatal("Sort did not sort")
	}
	if sorted.Count() != 1000 {
		t.Fatalf("lost records: %d", sorted.Count())
	}
	// Input untouched.
	if Sorted(recs) {
		t.Error("Sort mutated its input")
	}
}

func TestMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := Sort(Generate(rng, 100))
	b := Sort(Generate(rng, 150))
	c := Sort(Generate(rng, 1))
	merged := Merge([]Records{a, b, c})
	if merged.Count() != 251 {
		t.Fatalf("merged count = %d", merged.Count())
	}
	if !Sorted(merged) {
		t.Fatal("merge output unsorted")
	}
}

// TestMergeTruncatedRun is the regression test for the partial-record bug:
// Merge used to size its target from raw byte lengths while consuming whole
// records, so a run with a trailing partial record made the loop's exit
// condition unreachable and it panicked indexing runs[-1].
func TestMergeTruncatedRun(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := Sort(Generate(rng, 10))
	b := Sort(Generate(rng, 5))
	b = b[:len(b)-37] // trailing partial record: 4 whole records + 63 bytes
	merged := Merge([]Records{a, b})
	if got, want := merged.Count(), 14; got != want {
		t.Fatalf("merged count = %d, want %d (partial record must be dropped)", got, want)
	}
	if len(merged)%RecordSize != 0 {
		t.Fatalf("merged length %d is not record-aligned", len(merged))
	}
	if !Sorted(merged) {
		t.Fatal("merge output unsorted")
	}
}

func TestPartitionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	recs := Generate(rng, 2000)
	parts := Partition(recs, 8)
	if len(parts) != 8 {
		t.Fatalf("parts = %d", len(parts))
	}
	total := 0
	for _, p := range parts {
		total += p.Count()
	}
	if total != 2000 {
		t.Fatalf("partitioned total = %d", total)
	}
	// Sorting each partition then concatenating yields a fully sorted
	// stream (range partitioning by leading key byte).
	var all Records
	for _, p := range parts {
		all = append(all, Sort(p)...)
	}
	if !Sorted(all) {
		t.Error("range-partitioned sort not globally ordered")
	}
}

// Kernel benchmarks: the per-partition sort and the k-way merge are the hot
// loops of the data-plane verification pass (internal/scale dataplane mode);
// CI runs them in the -benchtime 1x smoke lane.
func BenchmarkSortRecords(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	recs := Generate(rng, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := make(Records, len(recs))
		copy(cp, recs)
		Sort(cp)
	}
}

func BenchmarkMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	runs := make([]Records, 16)
	for i := range runs {
		runs[i] = Sort(Generate(rng, 1_000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := Merge(runs); !Sorted(m) {
			b.Fatal("merge output unsorted")
		}
	}
}
