package obs

import (
	"testing"

	"repro/internal/sim"
)

func TestQuantilesNearestRank(t *testing.T) {
	s := NewStore(128)
	id := s.Register("m", "")
	for i := 1; i <= 100; i++ {
		s.Advance(sim.Time(i) * sim.Millisecond)
		s.Set(id, int64(i))
	}
	a, ok := s.Aggregate(id, 0, 0)
	if !ok {
		t.Fatal("no samples")
	}
	if a.P50 != 50 || a.P99 != 99 {
		t.Fatalf("p50=%d p99=%d, want 50/99", a.P50, a.P99)
	}
	if a.Min != 1 || a.Max != 100 || a.Count != 100 {
		t.Fatalf("min=%d max=%d count=%d", a.Min, a.Max, a.Count)
	}
	// Single-sample window: every quantile is that sample.
	a, ok = s.Aggregate(id, 42*sim.Millisecond, 42*sim.Millisecond)
	if !ok || a.P50 != 42 || a.P99 != 42 {
		t.Fatalf("singleton window = %+v ok=%v", a, ok)
	}
}

// TestAggregateAllocatesNothing pins the read path's allocation budget: on a
// warm store (the quantile scratch already grown) a windowed aggregate sorts
// in place and allocates nothing.
func TestAggregateAllocatesNothing(t *testing.T) {
	s := NewStore(64)
	id := s.Register("m", "")
	for i := 1; i <= 100; i++ {
		s.Advance(sim.Time(i) * sim.Millisecond)
		s.Set(id, int64(i*7919%101))
	}
	s.Aggregate(id, 0, 0) // warm
	if n := testing.AllocsPerRun(100, func() { s.Aggregate(id, 0, 0) }); n != 0 {
		t.Fatalf("Aggregate allocates %v times per call on a warm store", n)
	}
}

func TestGroupByReturnsEverySeriesOfMetric(t *testing.T) {
	s := NewStore(16)
	r0 := s.Register("rack.free", "r0")
	r1 := s.Register("rack.free", "r1")
	s.Register("other", "x")
	s.Advance(sim.Second)
	s.Set(r0, 10)
	s.Set(r1, 20)
	out := s.AggregateMetric("rack.free", 0, 0, nil)
	if len(out) != 2 {
		t.Fatalf("group-by returned %d series, want 2", len(out))
	}
	if out[0].Group != "r0" || out[0].Last != 10 || out[1].Group != "r1" || out[1].Last != 20 {
		t.Fatalf("group-by rows = %+v", out)
	}
}

func TestAnswerFiltersAndWindows(t *testing.T) {
	s := NewStore(16)
	r0 := s.Register("rack.free", "r0")
	r1 := s.Register("rack.free", "r1")
	for i := 1; i <= 4; i++ {
		s.Advance(sim.Time(i) * sim.Second)
		s.Set(r0, int64(i))
		s.Set(r1, int64(10*i))
	}
	// Group filter: one series only.
	resp := s.Answer(QueryRequest{Metric: "rack.free", Group: "r1", Seq: 7}, 3)
	if resp.Seq != 7 || resp.Epoch != 3 || resp.Samples != 4 {
		t.Fatalf("response header = %+v", resp)
	}
	if len(resp.Results) != 1 || resp.Results[0].Group != "r1" || resp.Results[0].Last != 40 {
		t.Fatalf("filtered results = %+v", resp.Results)
	}
	// Window in µs: [2s, 3s] picks two samples.
	resp = s.Answer(QueryRequest{
		Metric: "rack.free",
		FromUS: int64(2 * sim.Second), ToUS: int64(3 * sim.Second),
	}, 3)
	if len(resp.Results) != 2 || resp.Results[0].Count != 2 || resp.Results[0].Sum != 5 {
		t.Fatalf("windowed group-by = %+v", resp.Results)
	}
	// Unknown metric: empty but well-formed.
	resp = s.Answer(QueryRequest{Metric: "nope"}, 3)
	if len(resp.Results) != 0 {
		t.Fatalf("unknown metric returned results: %+v", resp.Results)
	}
}

func TestQueryMessagesAreSized(t *testing.T) {
	// The transport charges unsized messages a flat 64 bytes; the query
	// surface follows the protocol convention of explicit WireSize so byte
	// accounting stays honest.
	req := QueryRequest{Metric: "rack.free", Group: "r0"}
	if req.WireSize() <= 0 {
		t.Fatal("request not sized")
	}
	resp := QueryResponse{Metric: "rack.free", Results: []Agg{{Group: "r0"}, {Group: "r1"}}}
	if resp.WireSize() <= req.WireSize() {
		t.Fatalf("response size %d should exceed request size %d with 2 rows",
			resp.WireSize(), req.WireSize())
	}
}
