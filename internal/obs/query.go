package obs

import (
	"slices"

	"repro/internal/sim"
)

// Agg is one series' windowed aggregate: the downsampled view a query
// returns instead of raw samples. P50/P99 are nearest-rank quantiles.
type Agg struct {
	Metric string
	Group  string
	Count  int64
	Last   int64
	Min    int64
	Max    int64
	Sum    int64
	P50    int64
	P99    int64
}

// Aggregate scans one series over the window [from, to] (virtual time,
// inclusive; to <= 0 means "through the newest sample") and returns its
// aggregate. ok is false when no retained sample falls in the window. The
// scan walks the ring chronologically, so windows straddling the wrap
// point and windows older than retention behave exactly as eviction
// dictates.
func (s *Store) Aggregate(id SeriesID, from, to sim.Time) (Agg, bool) {
	a := Agg{Metric: s.metric[id], Group: s.group[id]}
	ring := s.vals[id]
	buf := s.qbuf[:0]
	for i := 0; i < s.count; i++ {
		idx := s.rowIndex(i)
		t := s.times[idx]
		if t < from || (to > 0 && t > to) {
			continue
		}
		v := ring[idx]
		if a.Count == 0 {
			a.Min, a.Max = v, v
		} else {
			if v < a.Min {
				a.Min = v
			}
			if v > a.Max {
				a.Max = v
			}
		}
		a.Count++
		a.Sum += v
		a.Last = v
		buf = append(buf, v)
	}
	s.qbuf = buf
	if a.Count == 0 {
		return a, false
	}
	// Nearest-rank quantiles over the window; the scratch sort is the only
	// O(n log n) step and reuses the store-owned buffer.
	slices.Sort(buf)
	a.P50 = buf[nearestRank(len(buf), 0.50)]
	a.P99 = buf[nearestRank(len(buf), 0.99)]
	return a, true
}

// AggregateMetric appends the windowed aggregate of every series of one
// metric (in registration order — the rack/class group-by) to out.
func (s *Store) AggregateMetric(metric string, from, to sim.Time, out []Agg) []Agg {
	for _, id := range s.byMetric[metric] {
		if a, ok := s.Aggregate(id, from, to); ok {
			out = append(out, a)
		}
	}
	return out
}

// nearestRank returns the 0-based index of quantile q over n sorted values.
func nearestRank(n int, q float64) int {
	r := int(float64(n)*q + 0.9999999)
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1
}

// ---------------------------------------------------------------------------
// query wire surface
// ---------------------------------------------------------------------------

// QueryRequest asks the live master for windowed aggregates of one metric.
// Group narrows to one series; empty Group returns every series of the
// metric (group-by). FromUS/ToUS bound the window in virtual microseconds;
// ToUS <= 0 means "through now". Seq follows the protocol convention.
type QueryRequest struct {
	Metric string
	Group  string
	FromUS int64
	ToUS   int64
	Seq    uint64
}

// WireSize implements transport.Sizer: header + window + strings.
func (q QueryRequest) WireSize() int { return 40 + len(q.Metric) + len(q.Group) }

// QueryResponse carries the aggregates back. Samples is the store's live
// row count at answer time. ServerNS is the wall-clock nanoseconds the
// master spent evaluating the query — a real-time measurement, excluded
// from determinism comparisons like every wall-time field.
type QueryResponse struct {
	Metric   string
	Results  []Agg
	Samples  int
	Epoch    int
	Seq      uint64
	ServerNS int64
}

// WireSize implements transport.Sizer: header + per-result aggregate rows.
func (q QueryResponse) WireSize() int {
	n := 48 + len(q.Metric)
	for i := range q.Results {
		n += 64 + len(q.Results[i].Group)
	}
	return n
}

// Answer evaluates req against the store. It allocates (the response owns
// its results); queries are off the record path by design.
func (s *Store) Answer(req QueryRequest, epoch int) QueryResponse {
	resp := QueryResponse{Metric: req.Metric, Samples: s.count, Epoch: epoch, Seq: req.Seq}
	from, to := sim.Time(req.FromUS), sim.Time(req.ToUS)
	if req.Group != "" {
		if id, ok := s.Lookup(req.Metric, req.Group); ok {
			if a, ok2 := s.Aggregate(id, from, to); ok2 {
				resp.Results = append(resp.Results, a)
			}
		}
		return resp
	}
	resp.Results = s.AggregateMetric(req.Metric, from, to, nil)
	return resp
}
