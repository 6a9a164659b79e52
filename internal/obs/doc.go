// Package obs is the in-memory observability plane of the control plane: a
// ring-buffered time-series store the master embeds to record per-round
// cluster state, plus the query surface that makes a live run interrogable
// over the transport.
//
// The design constraint is the HTAP one — serve analytical reads over live
// operational state without perturbing the update path's budgets:
//
//   - The record path is allocation-free in steady state. A Store is a set
//     of fixed-capacity int64 rings sharing one timestamp ring; series are
//     registered up front (or lazily, paying one allocation at first sight)
//     and addressed by dense SeriesID thereafter. Advance opens a sample
//     row, Set/Add fill it — no maps, no strings, no interface boxing.
//     A CI budget pins allocs/sample at zero the same way the scheduler's
//     decision path is pinned.
//
//   - Retention is by eviction: the ring holds the last Cap samples and a
//     new row overwrites the oldest, exactly. Queries carry explicit
//     virtual-time windows and see only what the ring still holds.
//
//   - Reads are windowed aggregations (count/last/min/max/sum and
//     nearest-rank p50/p99) over one series or grouped over every series
//     of a metric (the rack/class group-by). Aggregation scans the ring in
//     chronological order, straddling the wrap point transparently, and
//     reuses a store-owned scratch buffer for the quantile sort.
//
//   - QueryRequest/QueryResponse are the wire form: the master answers
//     them on its endpoint (see internal/master), so scalesim and tests
//     interrogate a run while it is live instead of post-processing a
//     benchmark file after the fact.
//
//   - Dist is the exact distribution every run-level percentile comes from
//     (demand-to-grant, admission, recovery, convergence, makespan, query
//     latency): one counted cell per distinct value, so memory follows the
//     values seen and not the samples, the same nearest-rank rule as a
//     windowed query, and a mean that no quantile read can reorder.
//
// Values are int64 throughout: gauges store the sampled level, monotone
// counters store the cumulative count (consumers diff across the window).
// All methods must be called from the simulation goroutine.
package obs
