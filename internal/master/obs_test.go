package master

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/transport"
)

// obsHarness: one master with the observability plane on, batch rounds
// armed, and one scripted app driving demand through the round path.
func newObsHarness(t *testing.T) (*masterHarness, *obs.Store) {
	t.Helper()
	store := obs.NewStore(256)
	cfg := Config{ProcessName: "fm-1"}
	cfg.BatchWindow = 10 * sim.Millisecond
	cfg.Obs = store
	h := newMasterHarness(t, cfg)
	h.registerApp(t)
	return h, store
}

func TestMasterRecordsPerRoundSamples(t *testing.T) {
	h, store := newObsHarness(t)
	h.send(&protocol.DemandUpdate{
		App:    "app1",
		Deltas: unitHints(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 3}),
		Seq:    h.seq.Next(),
	})
	h.eng.Run(h.eng.Now() + 100*sim.Millisecond)
	if store.Total() == 0 {
		t.Fatal("no obs samples recorded by the round path")
	}
	// The cluster free-CPU series must reflect the three 1000m grants
	// against the 4-machine 12000m topology in its latest row.
	id, ok := store.Lookup("cluster.free_cpu", "")
	if !ok {
		t.Fatal("cluster.free_cpu not registered")
	}
	if got := store.Get(id); got != 4*12000-3*1000 {
		t.Fatalf("cluster.free_cpu = %d, want %d", got, 4*12000-3*1000)
	}
	gid, _ := store.Lookup("cluster.granted_cpu", "")
	if got := store.Get(gid); got != 3000 {
		t.Fatalf("cluster.granted_cpu = %d, want 3000", got)
	}
	// Every rack contributes both per-rack series.
	if len(store.AggregateMetric("rack.free_cpu", 0, 0, nil)) != 2 {
		t.Fatal("expected one rack.free_cpu series per rack")
	}
}

func TestQueueDepthSeriesAppearLazily(t *testing.T) {
	h, store := newObsHarness(t)
	// Demand beyond capacity: 4 machines x 12 fit of 1000m leaves overflow
	// queued at cluster level, which must register a class series.
	h.send(&protocol.DemandUpdate{
		App:    "app1",
		Deltas: unitHints(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 60}),
		Seq:    h.seq.Next(),
	})
	h.eng.Run(h.eng.Now() + 100*sim.Millisecond)
	rows := store.AggregateMetric("queue.depth", 0, 0, nil)
	if len(rows) != 1 || rows[0].Group != "c1000x2048" {
		t.Fatalf("queue.depth series = %+v, want one c1000x2048 class", rows)
	}
	qt, _ := store.Lookup("queue.total", "")
	if store.Get(qt) == 0 {
		t.Fatal("queue.total not recorded while demand is waiting")
	}
}

func TestObsQueryAnsweredOverTransport(t *testing.T) {
	h, store := newObsHarness(t)
	_ = store
	h.send(&protocol.DemandUpdate{
		App:    "app1",
		Deltas: unitHints(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 2}),
		Seq:    h.seq.Next(),
	})
	h.eng.Run(h.eng.Now() + 50*sim.Millisecond)

	var got []obs.QueryResponse
	h.net.Register("obsclient", func(_ transport.EndpointID, msg transport.Message) {
		if r, ok := msg.(obs.QueryResponse); ok {
			got = append(got, r)
		}
	})
	h.net.SendID(h.net.Endpoint("obsclient"), h.net.Endpoint(protocol.MasterEndpoint), obs.QueryRequest{
		Metric: "rack.free_cpu", Seq: 42,
	})
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	if len(got) != 1 {
		t.Fatalf("got %d responses, want 1", len(got))
	}
	r := got[0]
	if r.Seq != 42 || r.Epoch != 1 || r.Samples == 0 {
		t.Fatalf("response header = %+v", r)
	}
	if len(r.Results) != 2 {
		t.Fatalf("rack group-by returned %d rows, want 2", len(r.Results))
	}
	for _, a := range r.Results {
		if a.Last > 2*12000 || a.Last < 2*12000-2*1000 {
			t.Fatalf("rack free out of range: %+v", a)
		}
	}
	// A query for a metric that was never registered stays well-formed.
	h.net.SendID(h.net.Endpoint("obsclient"), h.net.Endpoint(protocol.MasterEndpoint), obs.QueryRequest{Metric: "nope", Seq: 43})
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	if len(got) != 2 || len(got[1].Results) != 0 {
		t.Fatalf("unknown-metric query = %+v", got[len(got)-1])
	}
}

func TestMasterSamplingIsAllocFree(t *testing.T) {
	h, _ := newObsHarness(t)
	// Warm the path: demand both grants and queued overflow so the rack
	// sweep, the queue-depth sweep and the class table are all exercised,
	// then measure the steady-state sample.
	h.send(&protocol.DemandUpdate{
		App:    "app1",
		Deltas: unitHints(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 60}),
		Seq:    h.seq.Next(),
	})
	h.eng.Run(h.eng.Now() + 100*sim.Millisecond)
	h.m1.SampleObs() // register any remaining lazy series
	if avg := testing.AllocsPerRun(200, h.m1.SampleObs); avg != 0 {
		t.Fatalf("steady-state obs sample allocates %.2f/op, want 0", avg)
	}
}
