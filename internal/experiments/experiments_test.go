package experiments

import "testing"

// Small-scale smoke runs: the real experiments run at their default sizes
// in the root bench suite; these tests verify the harnesses produce sane
// numbers quickly.

func smallSynthetic() SyntheticOptions {
	return SyntheticOptions{
		Racks: 4, MachinesPerRack: 5,
		ConcurrentJobs: 25, JobScale: 100,
		DurationSimSec: 60, SampleEverySec: 5,
		Seed: 3,
	}
}

func TestRunSyntheticProducesUtilization(t *testing.T) {
	res, err := RunSynthetic(smallSynthetic())
	if err != nil {
		t.Fatal(err)
	}
	if res.SchedCount == 0 {
		t.Fatal("no scheduling requests measured")
	}
	if res.SchedMeanMS <= 0 {
		t.Errorf("sched mean = %v", res.SchedMeanMS)
	}
	// The paper reports ~95% planned; a scaled cluster should still be
	// well-loaded with 10 concurrent jobs.
	if res.MemPlannedFrac < 0.3 {
		t.Errorf("memory planned fraction = %.2f, want loaded cluster", res.MemPlannedFrac)
	}
	// Sanity ordering: planned >= obtained >= FA (each stage adds delay).
	if res.MemObtainedFrac > res.MemPlannedFrac+0.05 {
		t.Errorf("obtained %.2f above planned %.2f", res.MemObtainedFrac, res.MemPlannedFrac)
	}
	if res.CompletedJobs == 0 {
		t.Error("no jobs completed in the window")
	}
	if res.AvgJMStartSec < 1.8 || res.AvgJMStartSec > 2.1 {
		t.Errorf("JM start overhead = %.2f, want ~1.91", res.AvgJMStartSec)
	}
	if res.AvgWorkerStartSec <= 0 {
		t.Errorf("worker start overhead = %v", res.AvgWorkerStartSec)
	}
}

func TestRunFaultMatrixShape(t *testing.T) {
	// Half-scale rendition: 150 machines (so the paper's fixed 15/29
	// machine campaigns are a 10%/19% fault rate), short tasks. The
	// ordering property — more faults, more slowdown; all runs complete —
	// is what matters. This is by far the slowest test in the repo, so
	// short mode (CI) runs a downsized cluster and workload that still
	// exercises all five fault scenarios (the paper's process faults plus
	// the network-chaos row).
	opts := FaultOptions{
		Racks: 15, MachinesPerRack: 10,
		Instances: 2400, Workers: 600, DurationMS: 10_000,
		Seed: 5,
	}
	// The campaigns degrade a fixed 15/29 machines (the paper's counts),
	// so the plausible-slowdown ceiling scales with how much of the
	// cluster that is: ~20% of 150 machines, ~50% of the short-mode 60.
	maxSlowdown := 200.0
	if testing.Short() {
		opts.Racks, opts.MachinesPerRack = 6, 10
		opts.Instances, opts.Workers = 480, 120
		opts.DurationMS = 5_000
		maxSlowdown = 500.0
	}
	rows, err := RunFaultMatrix(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	normal := rows[0].ElapsedSec
	if normal <= 0 {
		t.Fatal("no baseline time")
	}
	for _, r := range rows[1:] {
		if r.ElapsedSec < normal {
			t.Errorf("%s faster than fault-free (%f < %f)", r.Scenario, r.ElapsedSec, normal)
		}
		if r.SlowdownPct < 0 || r.SlowdownPct > maxSlowdown {
			t.Errorf("%s slowdown = %.1f%%, implausible", r.Scenario, r.SlowdownPct)
		}
	}
}

func TestMeasureGraySort(t *testing.T) {
	r, err := MeasureGraySort(11)
	if err != nil {
		t.Fatal(err)
	}
	if r.FuxiOverhead < 1 || r.BaselineOverhead <= r.FuxiOverhead {
		t.Errorf("overhead factors fuxi %.2f, baseline %.2f: want 1 <= fuxi < baseline",
			r.FuxiOverhead, r.BaselineOverhead)
	}
	if r.Fuxi.ThroughputTB <= r.Baseline.ThroughputTB || r.ImprovementPct <= 0 {
		t.Errorf("fuxi %.3f TB/min vs baseline %.3f (improvement %.1f%%): want fuxi ahead",
			r.Fuxi.ThroughputTB, r.Baseline.ThroughputTB, r.ImprovementPct)
	}
	for _, row := range []struct {
		name string
		sec  float64
	}{{"Fuxi", r.Fuxi.ElapsedSec}, {"Yahoo", r.Yahoo.ElapsedSec}, {"PetaSort", r.PetaSort.ElapsedSec}} {
		if row.sec <= 0 {
			t.Errorf("%s elapsed = %v", row.name, row.sec)
		}
	}
}

func TestOverheadConfigIdeal(t *testing.T) {
	cfg := OverheadConfig{Nodes: 10, WorkersPerNode: 2, Waves: 3, TaskDurationMS: 2000}
	if got := cfg.IdealSec(); got != 12 {
		t.Errorf("ideal = %v, want 12", got)
	}
	if cfg.instances() != 60 {
		t.Errorf("instances = %d", cfg.instances())
	}
}

func TestMeasuredOverheadsOrdering(t *testing.T) {
	// The headline shape of Table 4: Fuxi's measured overhead factor must
	// be materially below the YARN-style baseline's on the same workload.
	cfg := OverheadConfig{
		Nodes: 10, WorkersPerNode: 4, Waves: 4,
		TaskDurationMS: 15_000, WorkerStartDelayMS: 2_000, Seed: 42,
	}
	fuxi, err := MeasureFuxi(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := MeasureBaseline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("overhead factors: fuxi=%.2f baseline=%.2f", fuxi, base)
	if fuxi < 1 {
		t.Errorf("fuxi factor %.2f below 1 (impossible)", fuxi)
	}
	if base <= fuxi {
		t.Errorf("baseline factor %.2f not above fuxi %.2f", base, fuxi)
	}
}
