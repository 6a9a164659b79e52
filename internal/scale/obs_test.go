package scale

import (
	"testing"

	"repro/internal/sim"
)

// obTiny returns an observability configuration small enough for unit
// tests: the 20-machine churn workload with a 64-row ring (so the run
// wraps it many times), queries every second, and the two scheduled flap
// windows inside the measurement window.
func obTiny() Config {
	c := SmokeObsConfig()
	c.Racks, c.MachinesPerRack = 4, 5
	c.Apps, c.UnitsPerApp = 30, 5
	c.ContainersPerUnit = 3
	c.HoldTime = 2 * sim.Second
	c.ArrivalWindow = 3 * sim.Second
	c.ChurnWarmup = 6 * sim.Second
	c.ChurnMeasure = 24 * sim.Second
	c.Horizon = c.ChurnWarmup + c.ChurnMeasure
	c.ObsRetain = 64
	c.ObsQueryEvery = sim.Second
	return c
}

func TestObsRunRecordsAndQueriesLive(t *testing.T) {
	res, err := Run(obTiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Invariants) > 0 {
		t.Errorf("invariant violations under obs: %v", res.Invariants)
	}
	o := res.Obs
	if o == nil {
		t.Fatal("no obs section in the result")
	}

	// The ring wrapped: the 30 s run at a 20 ms round window records far
	// more rows than the 64 the ring retains.
	if o.SamplesTotal <= uint64(o.RingCapacity) {
		t.Errorf("ring never wrapped: total=%d capacity=%d", o.SamplesTotal, o.RingCapacity)
	}
	if o.SamplesRetained != o.RingCapacity {
		t.Errorf("retained=%d, want full ring %d", o.SamplesRetained, o.RingCapacity)
	}
	if o.Series < 15 {
		t.Errorf("only %d series registered", o.Series)
	}
	if o.BytesPerSample != 8*(o.Series+1) {
		t.Errorf("bytes/sample=%d with %d series", o.BytesPerSample, o.Series)
	}

	// The record path stayed alloc-free in steady state.
	if o.AllocsPerSample != 0 {
		t.Errorf("allocs/sample = %.3f, want 0", o.AllocsPerSample)
	}

	// Live queries ran mid-run and returned rows.
	if o.Queries == 0 || o.Responses == 0 || o.QueryResults == 0 {
		t.Errorf("live queries did not run: queries=%d responses=%d results=%d",
			o.Queries, o.Responses, o.QueryResults)
	}
	if o.QueryChecksum == 0 {
		t.Error("query checksum not accumulated")
	}

	// Both flap windows fired and their loss is attributed to the watched
	// links.
	if o.FlapWindows != 2 {
		t.Errorf("flap windows = %d, want 2", o.FlapWindows)
	}
	if o.WatchedLinks != 3 {
		t.Errorf("watched links = %d, want 3", o.WatchedLinks)
	}
	if o.LinkDropsObserved == 0 {
		t.Error("no link drops observed through two flap windows")
	}

	// The incremental checkpoint wrote bytes proportional to churn, not
	// cluster state: the measured saving over snapshot-per-write must meet
	// the acceptance line.
	if o.CheckpointBytes == 0 || o.CheckpointWrites == 0 {
		t.Errorf("checkpoint accounting empty: writes=%d bytes=%d",
			o.CheckpointWrites, o.CheckpointBytes)
	}
	if o.CheckpointSavingsX < 5 {
		t.Errorf("checkpoint savings %.1fx over full snapshots, want >= 5x", o.CheckpointSavingsX)
	}

}

// TestObsDeterministicAcrossRuns runs the identical obs schedule twice:
// every virtual-time-derived field of the obs section must be identical —
// including the query checksum, which pins the full content of every live
// query response. Wall-clock fields (query latencies, the allocation
// calibration) are zeroed before comparison.
func TestObsDeterministicAcrossRuns(t *testing.T) {
	base := obTiny()
	base.ChurnMeasure = 16 * sim.Second
	base.Horizon = base.ChurnWarmup + base.ChurnMeasure

	var ref *ObsStats
	for _, name := range []string{"run-a", "run-b"} {
		res, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		if res.Obs == nil {
			t.Fatalf("%s: no obs section", name)
		}
		if len(res.Invariants) > 0 {
			t.Errorf("%s: invariant violations: %v", name, res.Invariants)
		}
		got := *res.Obs
		got.QueryP50US, got.QueryP99US, got.AllocsPerSample = 0, 0, 0
		if ref == nil {
			ref = &got
			if ref.SamplesTotal == 0 || ref.Queries == 0 || ref.QueryChecksum == 0 {
				t.Fatalf("reference run measured nothing useful: %+v", ref)
			}
			continue
		}
		if got != *ref {
			t.Errorf("%s: obs stats diverge:\n got %+v\nwant %+v", name, got, *ref)
		}
	}
}

func TestObsRequiresRoundWindow(t *testing.T) {
	cfg := obTiny()
	cfg.RoundWindow = 0
	if _, err := Run(cfg); err == nil {
		t.Error("expected error for obs mode without a round window")
	}
}
