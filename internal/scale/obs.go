package scale

// Observability mode: the steady-state churn workload with the master's
// ring-buffered time-series plane enabled (master.Config.Obs). Every
// scheduling round the primary records one sample row — cluster and
// per-rack free/granted capacity, cluster-queue depth by size class,
// preemption and flap counters, checkpoint write/byte counters, transport
// totals — and the harness's sampler hook appends its own series to the
// same row: workload grant/revoke counters, gateway shed (when a gateway is
// deployed), and per-link sent/dropped counters for a watched set of
// machines whose links the schedule deliberately flaps mid-run. A query
// client then interrogates the live store over the transport on a fixed
// virtual-time cadence — windowed scans with last/min/max/p50/p99
// downsampling and rack/class group-by — while the run is under load,
// proving the analytical read path works against live state without
// perturbing the update path (the record path stays alloc-free; the CI
// budget gates it). Results land in the `obs` section of BENCH_scale.json.
//
// The virtual-time-derived fields of ObsStats — everything except the
// wall-clock query latencies and the allocation calibration — are
// byte-identical across repeated runs, and QueryChecksum (an FNV-1a hash
// over every query response's content, ServerNS excluded) pins the whole
// live-query conversation, not just its volume.

import (
	"runtime"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/transport"
)

// DefaultObsConfig is the paper-scale observability run: the 5,000-machine
// churn workload with the time-series plane on. The ring retains 1,024
// rounds (~20 s at the 20 ms round window), so the run wraps the ring
// several times; live queries fire every 5 s.
func DefaultObsConfig() Config {
	c := DefaultChurnConfig()
	c.Obs = true
	c.CheckInvariants = true
	c.ObsRetain = 1024
	c.ObsQueryEvery = 5 * sim.Second
	return c
}

// SmokeObsConfig is the CI-sized observability run: the 100-machine churn
// smoke with a 256-row ring — the ~400 rounds the 50 s horizon records wrap
// it, so the smoke lane exercises eviction too — and a 2 s query cadence.
func SmokeObsConfig() Config {
	c := SmokeChurnConfig()
	c.Obs = true
	c.CheckInvariants = true
	c.ObsRetain = 256
	c.ObsQueryEvery = 2 * sim.Second
	return c
}

const (
	// obsFlapDur is the link-down half of each scheduled flap window. It is
	// deliberately far below the master's 3 s heartbeat timeout: the flap
	// must surface as per-link loss in the time-series, not as a machine
	// death and revocation wave.
	obsFlapDur = 500 * sim.Millisecond
	// obsQueryWindow is each live query's lookback window.
	obsQueryWindow = 10 * sim.Second
	// obsCalibrationRounds sizes the post-run allocation calibration.
	obsCalibrationRounds = 200
)

// obsQueryMetrics is the rotation of live queries the client issues: a
// cluster gauge, a per-rack group-by, the per-class queue depths, the
// watched-link loss counters, and a harness counter series.
var obsQueryMetrics = []string{
	"cluster.free_cpu",
	"rack.free_cpu",
	"queue.depth",
	"link.dropped",
	"churn.grants",
	"cluster.granted_cpu",
}

// obsProbe is the observability plane's harness side: the shared store, the
// harness series, the watched-link set, the flap schedule, and the live query
// client.
type obsProbe struct {
	idleProbe
	h     *harness
	store *obs.Store

	clientEP transport.EndpointID
	masterEP transport.EndpointID

	// Harness series recorded on the master's sampler hook.
	grantsID  obs.SeriesID
	revokesID obs.SeriesID
	shedID    obs.SeriesID

	// watched machines (dense IDs) and their agent endpoints; linkSent and
	// linkDropped are the per-machine series, each the sum of the
	// master→agent and agent→master directions.
	watched     []int32
	watchedEP   []transport.EndpointID
	linkSent    []obs.SeriesID
	linkDropped []obs.SeriesID

	// Live-query client state.
	seq          uint64
	queries      int
	responses    int
	queryResults int
	checksum     uint64
	qlat         obs.Dist // wall-clock server ns per query, in µs
}

func newObsProbe(h *harness) *obsProbe {
	retain := h.cfg.ObsRetain
	if retain <= 0 {
		retain = 1024
	}
	o := &obsProbe{
		h:        h,
		store:    obs.NewStore(retain),
		checksum: fnvOffset,
	}
	o.grantsID = o.store.Register("churn.grants", "")
	o.revokesID = o.store.Register("churn.revokes", "")
	o.shedID = o.store.Register("gw.shed", "")
	return o
}

// need: the master pair records into the probe's store and calls its sampler.
func (o *obsProbe) need(cc *core.Config) {
	cc.Master.Obs, cc.Master.ObsSampler = o.store, o.sample
}

// arm arms the watched-link set, the flap windows, and the live query
// cadence, once the masters and workload are wired (it needs the transport
// endpoints registered). The watched set is machine 0 (a control
// that never flaps) plus two victims; the two flap windows sit at one
// quarter and one half of the measurement window, so the loss shows up as
// two distinct bumps in the dropped-counter series.
func (o *obsProbe) arm() {
	h := o.h
	h.net.EnableLinkStats()
	o.masterEP = h.net.Endpoint(protocol.MasterEndpoint)
	o.clientEP = h.net.Endpoint("obsclient")
	h.net.Register("obsclient", o.onResponse)

	machines := h.top.Machines()
	watch := []int{0}
	if len(machines) > 2 {
		watch = append(watch, 1, 2)
	}
	for _, idx := range watch {
		name := machines[idx]
		o.watched = append(o.watched, h.top.MachineID(name))
		o.watchedEP = append(o.watchedEP, h.net.Endpoint(protocol.AgentEndpoint(name)))
		o.linkSent = append(o.linkSent, o.store.Register("link.sent", name))
		o.linkDropped = append(o.linkDropped, o.store.Register("link.dropped", name))
	}

	if len(watch) > 1 {
		measureStart, measure := h.load.window()
		victims := o.watched[1:]
		flapAt := []sim.Time{measureStart + measure/4, measureStart + measure/2}
		for i, at := range flapAt {
			h.inj.Apply(faults.Schedule{{
				Kind: faults.LinkFlap, At: at, Down: obsFlapDur, Cycles: 1,
				Targets: []int32{victims[i%len(victims)]},
			}})
		}
	}

	if h.cfg.ObsQueryEvery > 0 {
		h.eng.Every(h.cfg.ObsQueryEvery, o.issueQuery)
	}
}

// sample is the master's ObsSampler hook: the master has just advanced the
// ring and recorded its own series into the current row; append the
// harness's. Alloc-free — it is inside the calibrated record path.
func (o *obsProbe) sample(now sim.Time) {
	st := o.store
	st.Set(o.grantsID, int64(o.h.grants))
	st.Set(o.revokesID, int64(o.h.revokes))
	if o.h.gw != nil {
		st.Set(o.shedID, int64(o.h.gw.ShedTotal()))
	}
	for i, ep := range o.watchedEP {
		s1, _, d1, _ := o.h.net.LinkCountsID(o.masterEP, ep)
		s2, _, d2, _ := o.h.net.LinkCountsID(ep, o.masterEP)
		st.Set(o.linkSent[i], int64(s1+s2))
		st.Set(o.linkDropped[i], int64(d1+d2))
	}
}

// issueQuery sends the next query of the rotation: a windowed scan over the
// last obsQueryWindow of one metric, group-by over all its series.
func (o *obsProbe) issueQuery() {
	from := o.h.eng.Now() - obsQueryWindow
	if from < 0 {
		from = 0
	}
	metric := obsQueryMetrics[int(o.seq)%len(obsQueryMetrics)]
	o.seq++
	o.queries++
	o.h.net.SendID(o.clientEP, o.masterEP, obs.QueryRequest{
		Metric: metric, FromUS: int64(from), Seq: o.seq,
	})
}

// onResponse folds each query response into the conversation checksum
// (FNV-1a over everything but the wall-clock ServerNS) and the query
// latency histogram.
func (o *obsProbe) onResponse(_ transport.EndpointID, msg transport.Message) {
	r, ok := msg.(obs.QueryResponse)
	if !ok {
		return
	}
	o.responses++
	o.queryResults += len(r.Results)
	o.qlat.Observe(float64(r.ServerNS) / 1e3)
	h := o.checksum
	h = fnvString(h, r.Metric)
	h = fnvInt(h, int64(r.Samples))
	h = fnvInt(h, int64(r.Epoch))
	h = fnvInt(h, int64(r.Seq))
	for _, a := range r.Results {
		h = fnvString(h, a.Group)
		h = fnvInt(h, a.Count)
		h = fnvInt(h, a.Last)
		h = fnvInt(h, a.Min)
		h = fnvInt(h, a.Max)
		h = fnvInt(h, a.Sum)
		h = fnvInt(h, a.P50)
		h = fnvInt(h, a.P99)
	}
	o.checksum = h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvInt(h uint64, v int64) uint64 {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		h ^= u & 0xff
		h *= fnvPrime
		u >>= 8
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// ObsStats is the `obs` section of BENCH_scale.json. Every field except the
// wall-clock query latencies (QueryP50US/QueryP99US) and the allocation
// calibration (AllocsPerSample) derives from virtual time and is
// byte-identical across repeated runs; the struct is comparable so the
// determinism test asserts whole-struct equality with those fields zeroed.
type ObsStats struct {
	// Ring shape: registered series, ring capacity in rows, rows currently
	// retained, rows recorded over the whole run (Total > Retained proves
	// the ring wrapped), and bytes per row (8 bytes per series plus the
	// timestamp column).
	Series          int    `json:"series"`
	RingCapacity    int    `json:"ring_capacity"`
	SamplesRetained int    `json:"samples_retained"`
	SamplesTotal    uint64 `json:"samples_total"`
	BytesPerSample  int    `json:"bytes_per_sample"`
	// AllocsPerSample is the post-run calibration: allocations per record
	// pass, measured over obsCalibrationRounds extra samples on the live
	// primary (budget-gated at 0 in CI; wall-clock-adjacent, excluded from
	// determinism comparison).
	AllocsPerSample float64 `json:"allocs_per_sample"`

	// Live query conversation: queries issued, responses received (they
	// differ only if the run ends with one in flight), total group-by rows
	// returned, and the FNV-1a checksum over every response's content
	// (ServerNS excluded).
	Queries       int    `json:"queries"`
	Responses     int    `json:"responses"`
	QueryResults  int    `json:"query_results"`
	QueryChecksum uint64 `json:"query_checksum"`
	// Wall-clock server-side query cost in microseconds (excluded from
	// determinism comparison).
	QueryP50US float64 `json:"query_p50_us"`
	QueryP99US float64 `json:"query_p99_us"`

	// Loss attribution: watched machine links, flap windows executed, and
	// the final dropped-message total across the watched links — the value
	// the link.dropped series converges to (> 0 iff flaps fired).
	WatchedLinks      int   `json:"watched_links"`
	FlapWindows       int   `json:"flap_windows"`
	LinkDropsObserved int64 `json:"link_drops_observed"`

	// Incremental checkpoint accounting (the delta-log half of the PR):
	// write counts, byte split, compactions, bytes per registered job, and
	// the measured saving over re-encoding a full snapshot on every write
	// (CheckpointStore.FullBytes; the acceptance gate requires >= 5x).
	CheckpointWrites        int     `json:"checkpoint_writes"`
	CheckpointDeltaBytes    int64   `json:"checkpoint_delta_bytes"`
	CheckpointAnchorBytes   int64   `json:"checkpoint_anchor_bytes"`
	CheckpointBytes         int64   `json:"checkpoint_bytes"`
	CheckpointCompactions   int     `json:"checkpoint_compactions"`
	CheckpointBytesPerJob   float64 `json:"checkpoint_bytes_per_job"`
	FullSnapshotBytesPerJob float64 `json:"full_snapshot_bytes_per_job"`
	CheckpointSavingsX      float64 `json:"checkpoint_savings_x"`
}

// report builds the obs section. The ring-shape fields are captured
// before the allocation calibration runs (the calibration advances the ring
// by obsCalibrationRounds extra rows).
func (o *obsProbe) report(res *Result) {
	h := o.h
	st := &ObsStats{
		Series:          o.store.SeriesCount(),
		RingCapacity:    o.store.Cap(),
		SamplesRetained: o.store.Len(),
		SamplesTotal:    o.store.Total(),
		BytesPerSample:  o.store.BytesPerSample(),
		Queries:         o.queries,
		Responses:       o.responses,
		QueryResults:    o.queryResults,
		QueryChecksum:   o.checksum,
		QueryP50US:      o.qlat.Quantile(0.5),
		QueryP99US:      o.qlat.Quantile(0.99),
		WatchedLinks:    len(o.watched),
		FlapWindows:     h.inj.Fired(faults.LinkFlap),
	}
	for _, ep := range o.watchedEP {
		_, _, d1, _ := h.net.LinkCountsID(o.masterEP, ep)
		_, _, d2, _ := h.net.LinkCountsID(ep, o.masterEP)
		st.LinkDropsObserved += int64(d1 + d2)
	}

	ck := h.cl.Ckpt
	st.CheckpointWrites = ck.Writes
	st.CheckpointDeltaBytes = ck.DeltaBytes
	st.CheckpointAnchorBytes = ck.AnchorBytes
	st.CheckpointBytes = ck.Bytes()
	st.CheckpointCompactions = ck.Compactions
	jobs := h.cfg.Apps
	if h.gw != nil {
		jobs = int(h.gw.Snapshot().Registered)
	}
	if jobs > 0 {
		st.CheckpointBytesPerJob = float64(ck.Bytes()) / float64(jobs)
		st.FullSnapshotBytesPerJob = float64(ck.FullBytes) / float64(jobs)
	}
	if ck.Bytes() > 0 {
		st.CheckpointSavingsX = float64(ck.FullBytes) / float64(ck.Bytes())
	}

	// Allocation calibration last: drive the full record path (master
	// series, queue-depth sweep, harness sampler hook) on the live primary
	// and count allocations per pass.
	if p := h.primary(); p != nil {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < obsCalibrationRounds; i++ {
			p.SampleObs()
		}
		runtime.ReadMemStats(&after)
		st.AllocsPerSample = float64(after.Mallocs-before.Mallocs) / obsCalibrationRounds
	}
	res.Obs = st
}
