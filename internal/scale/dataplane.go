package scale

// Dataplane mode: the paper's data plane running on the scheduled cluster.
// Instead of synthetic hold/return churn, the workload is real jobs built
// from the data-plane packages, each a job.Description submitted through the
// multi-tenant gateway and, once registered, run by a JobMaster (internal/job,
// paper §4) that core.Cluster.SubmitJob launches over the usual master/agent
// stack:
//
//   - GraySort jobs (§5.3): a map → sort → merge chain whose stage widths
//     come from the input file's Pangu chunk count and whose simulated I/O
//     durations come from the graysort hardware phase model. A sampled subset
//     of jobs re-runs the real graysort kernels — generate, range-partition,
//     per-run sort, k-way merge — to verify one partition's output end to
//     end.
//   - DAG pipelines: the Figure 6 diamond (T1 → {T2, T3} → T4), T1 reading a
//     Pangu file.
//   - Streamline service jobs: long-running residents in the gateway's
//     service class, sharing the cluster with the batch jobs above and
//     periodically running real streamline map/reduce rounds (hash
//     word count and a range-partitioned sort) whose conservation
//     properties are asserted.
//
// Stage release, Pangu chunk locality and upstream locality are the
// JobMaster's: the planner and the JobMasters share the cluster's one Pangu
// namespace. The harness only watches: every grant and revocation a JobMaster
// receives reaches the observed-decision path through job.Config.Observer.
//
// The application-level measurements — job makespan, locality hit rate,
// MB shuffled versus read locally, per-class admission and demand-to-grant
// percentiles with SLO attainment — land in the `dataplane` section of
// BENCH_scale.json next to the control-plane decision metrics, with CI
// budget gates like the existing alloc/message ones.

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/dense"
	"repro/internal/gateway"
	"repro/internal/graysort"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/pangu"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/streamline"
)

// DefaultDataplaneConfig is the paper-scale data-plane run: 5,000 machines
// executing GraySort chains, Figure 6 diamonds and long-running service
// residents concurrently, with background machine failovers and the
// invariant checker attached.
func DefaultDataplaneConfig() Config {
	c := DefaultConfig()
	c.Apps = 0
	c.UnitsPerApp = 1 // unused by dataplane jobs; kept positive for validation
	c.Dataplane = true
	c.GraySortJobs = 12
	c.GraySortDataMB = 16 * 1024 // 64 chunks -> 64-wide map/sort/merge stages
	c.DAGJobs = 12
	c.ServiceJobs = 20
	c.ServiceWorkers = 4
	c.ServiceOps = 10
	c.ServiceOpEvery = 3 * sim.Second
	c.VerifyRecords = 2048
	c.VerifySampleEvery = 4
	c.ServiceSLOMS = 100
	c.BatchSLOMS = 5000
	c.ArrivalWindow = 30 * sim.Second
	c.HoldTime = 0
	c.FailoverEvery = 5 * sim.Second
	c.FailoverDowntime = 8 * sim.Second
	c.FullSyncEvery = 30 * sim.Second
	c.CheckInvariants = true
	c.Horizon = 10 * sim.Minute
	return c
}

// SmokeDataplaneConfig is the CI-sized data-plane run: 100 machines, small
// GraySort/DAG/service mix, full kernel verification on every sort job.
func SmokeDataplaneConfig() Config {
	c := DefaultDataplaneConfig()
	c.Racks, c.MachinesPerRack = 10, 10
	c.GraySortJobs = 4
	c.GraySortDataMB = 2048 // 8 chunks
	c.DAGJobs = 4
	c.ServiceJobs = 6
	c.ServiceWorkers = 2
	c.ServiceOps = 5
	c.ServiceOpEvery = 2 * sim.Second
	c.VerifyRecords = 512
	c.VerifySampleEvery = 1
	c.ArrivalWindow = 15 * sim.Second
	c.Horizon = 4 * sim.Minute
	return c
}

// dpKind tags a data-plane job's workload family.
type dpKind int

const (
	dpGraySort dpKind = iota
	dpDAG
	dpService
)

// dataJob is one data-plane job: the description a JobMaster runs once the
// gateway registers it, and what the harness observes of that run. It is the
// JobMaster's job.Observer.
type dataJob struct {
	application
	dp   *dataplaneLoad
	kind dpKind
	desc *job.Description
	// order lists the tasks in unit-ID order, the JobMaster's numbering.
	order []string

	dataMB float64
	width  int // graysort partition width (map/sort/merge stage width)

	submitAt sim.Time
	svcOps   int // remaining service operations

	// placed counts, per unit, the containers granted on each machine: the
	// stage placements the shuffle account reads when the job completes.
	placed []dense.Map[int]
}

// dataplaneLoad is the data-plane workload: the planned jobs and the
// application-level account.
type dataplaneLoad struct {
	wholeRun
	submitted int
	byID      map[string]*dataJob
	units     int

	makespan obs.Dist

	// loc counts batch grants by the locality level at which they met their
	// demand (resource.LocalityMachine, Rack, Cluster).
	loc                  [3]uint64
	shuffledMB, localMB  float64
	verified, verifyFail int
	svcOpsRun, svcOpFail int
	completedJobs        int
}

// DataplaneStats is the `dataplane` section's application-level block.
type DataplaneStats struct {
	GraySortJobs  int `json:"graysort_jobs"`
	DAGJobs       int `json:"dag_jobs"`
	ServiceJobs   int `json:"service_jobs"`
	CompletedJobs int `json:"completed_jobs"`

	// Batch-job makespan, submission to completion, in virtual ms.
	MakespanMeanMS float64 `json:"makespan_mean_ms"`
	MakespanP50MS  float64 `json:"makespan_p50_ms"`
	MakespanP99MS  float64 `json:"makespan_p99_ms"`
	MakespanMaxMS  float64 `json:"makespan_max_ms"`

	// Locality classification of every batch-job grant: the level at which
	// it met the JobMaster's demand (application master GrantLevel) — on a
	// machine holding its input (a chunk replica or an upstream instance's
	// output), in a rack it asked for, or anywhere. HitRatePct = (machine +
	// rack) / total.
	LocalityMachineGrants uint64  `json:"locality_machine_grants"`
	LocalityRackGrants    uint64  `json:"locality_rack_grants"`
	LocalityRemoteGrants  uint64  `json:"locality_remote_grants"`
	LocalityHitRatePct    float64 `json:"locality_hit_rate_pct"`

	// Task-to-task volume that crossed machines versus read on the machine
	// that produced it.
	ShuffledMB float64 `json:"shuffled_mb"`
	LocalMB    float64 `json:"local_mb"`

	// Sampled kernel verification (real graysort partition/sort/merge).
	VerifiedPartitions int `json:"verified_partitions"`
	VerifyFailures     int `json:"verify_failures"`

	// Streamline service operations executed (and conservation failures).
	ServiceOpsRun     int `json:"service_ops_run"`
	ServiceOpFailures int `json:"service_op_failures"`

	Service ClassStats `json:"service"`
	Batch   ClassStats `json:"batch"`
}

func newDataplaneLoad(h *harness) *dataplaneLoad {
	h.classes = newClassLedger(h.cfg)
	return &dataplaneLoad{
		wholeRun: wholeRun{h},
		byID:     make(map[string]*dataJob),
	}
}

func (dp *dataplaneLoad) frontDoor() *gateway.Config { return dp.h.gatewayConfig(dp.spawn) }

func (dp *dataplaneLoad) drained() bool {
	return dp.submitted >= dp.h.cfg.GatewaySubmissions && dp.h.gw.Drained()
}

// arm plans every job up front (Pangu files and job descriptions are part of
// the seeded workload, independent of scheduling timing) and submits them
// through the gateway spread over ArrivalWindow, classes interleaved so
// service and batch arrive mixed.
func (dp *dataplaneLoad) arm() error {
	h, cfg := dp.h, dp.h.cfg
	kinds := []struct {
		n    int
		plan func(int) (*dataJob, error)
	}{{cfg.ServiceJobs, dp.planService}, {cfg.GraySortJobs, dp.planGraySort}, {cfg.DAGJobs, dp.planDAG}}
	var plans []*dataJob
	for i := 0; i < max(cfg.ServiceJobs, cfg.GraySortJobs, cfg.DAGJobs); i++ {
		for _, kind := range kinds {
			if i >= kind.n {
				continue
			}
			p, err := kind.plan(i)
			if err != nil {
				return err
			}
			plans = append(plans, p)
		}
	}
	for _, p := range plans {
		dp.byID[p.name] = p
		h.classes.jobs[p.class]++
		dp.units += len(p.order)
	}
	start := h.eng.Now()
	for i, p := range plans {
		at := start + sim.Time(int64(cfg.ArrivalWindow)*int64(i)/int64(len(plans)))
		h.eng.At(at, func() {
			p.submitAt = h.eng.Now()
			h.gw.Submit(gateway.Job{ID: p.name, Tenant: "dp-" + p.name, Class: p.class})
			dp.submitted++
		})
	}
	return nil
}

// planGraySort builds one GraySort job: a map → sort → merge chain over a
// Pangu input file, stage width = chunk count, durations from the hardware
// phase model scaled to the job's slice of the cluster.
func (dp *dataplaneLoad) planGraySort(i int) (*dataJob, error) {
	cfg := dp.h.cfg
	id := gwName("gs-", i, 4)
	dataMB := cfg.GraySortDataMB
	if dataMB <= 0 {
		dataMB = pangu.DefaultChunkSizeMB
	}
	file := "pangu://" + id + "/input"
	f, err := dp.h.cl.FS.Create(file, dataMB)
	if err != nil {
		return nil, err
	}
	w := len(f.Chunks)
	hw := graysort.HardwareModel(
		graysort.ClusterSpec{Nodes: w, DisksPerNode: 12, DiskMBps: 100, NetMBps: 250},
		graysort.SortSpec{DataTB: float64(dataMB) / 1e6},
	)
	mapMS := clampMS(int64(hw.ReadSortSec / 2 * 1000))
	mergeMS := clampMS(int64((hw.ShuffleSec + hw.MergeWriteSec) * 1000))
	desc := &job.Description{
		Name: id,
		Tasks: map[string]job.TaskSpec{
			"map":   {Instances: w, CPUMilli: 1000, MemoryMB: 3072, DurationMS: mapMS},
			"sort":  {Instances: w, CPUMilli: 1000, MemoryMB: 4096, DurationMS: mapMS},
			"merge": {Instances: w, CPUMilli: 1000, MemoryMB: 4096, DurationMS: mergeMS},
		},
		Pipes: []job.Pipe{
			{Source: job.AccessPoint{FilePattern: file}, Destination: job.AccessPoint{AccessPoint: "map:input"}},
			{Source: job.AccessPoint{AccessPoint: "map:spill"}, Destination: job.AccessPoint{AccessPoint: "sort:spill"}},
			{Source: job.AccessPoint{AccessPoint: "sort:runs"}, Destination: job.AccessPoint{AccessPoint: "merge:runs"}},
			{Source: job.AccessPoint{AccessPoint: "merge:out"}, Destination: job.AccessPoint{FilePattern: "pangu://" + id + "/output"}},
		},
	}
	j, err := dp.newJob(id, dpGraySort, gateway.ClassBatch, desc, float64(dataMB))
	if err != nil {
		return nil, err
	}
	j.width = w
	return j, nil
}

// planDAG builds one Figure 6 diamond: T1 reads a Pangu file, T2/T3 fan out
// from it, T4 joins them.
func (dp *dataplaneLoad) planDAG(i int) (*dataJob, error) {
	id := gwName("dag-", i, 4)
	const t1Width = 12
	dataMB := int64(t1Width * pangu.DefaultChunkSizeMB)
	file := "pangu://" + id + "/input"
	if _, err := dp.h.cl.FS.Create(file, dataMB); err != nil {
		return nil, err
	}
	desc := &job.Description{
		Name: id,
		Tasks: map[string]job.TaskSpec{
			"T1": {Instances: t1Width, CPUMilli: 1000, MemoryMB: 2048, DurationMS: 3000},
			"T2": {Instances: 6, CPUMilli: 1000, MemoryMB: 3072, DurationMS: 4000},
			"T3": {Instances: 6, CPUMilli: 500, MemoryMB: 2048, DurationMS: 5000},
			"T4": {Instances: 2, CPUMilli: 2000, MemoryMB: 8192, DurationMS: 6000},
		},
		Pipes: []job.Pipe{
			{Source: job.AccessPoint{FilePattern: file}, Destination: job.AccessPoint{AccessPoint: "T1:input"}},
			{Source: job.AccessPoint{AccessPoint: "T1:toT2"}, Destination: job.AccessPoint{AccessPoint: "T2:fromT1"}},
			{Source: job.AccessPoint{AccessPoint: "T1:toT3"}, Destination: job.AccessPoint{AccessPoint: "T3:fromT1"}},
			{Source: job.AccessPoint{AccessPoint: "T2:toT4"}, Destination: job.AccessPoint{AccessPoint: "T4:fromT2"}},
			{Source: job.AccessPoint{AccessPoint: "T3:toT4"}, Destination: job.AccessPoint{AccessPoint: "T4:fromT3"}},
			{Source: job.AccessPoint{AccessPoint: "T4:output"}, Destination: job.AccessPoint{FilePattern: "pangu://" + id + "/output"}},
		},
	}
	return dp.newJob(id, dpDAG, gateway.ClassBatch, desc, float64(dataMB))
}

// planService builds one long-running service resident: a single task of
// ServiceWorkers instances that run for the job's configured lifetime, while
// a streamline operation round runs every ServiceOpEvery.
func (dp *dataplaneLoad) planService(i int) (*dataJob, error) {
	cfg := dp.h.cfg
	id := gwName("svc-", i, 4)
	lifeMS := int64(cfg.ServiceOps)*int64(cfg.ServiceOpEvery/sim.Millisecond) + 2000
	desc := &job.Description{
		Name: id,
		Tasks: map[string]job.TaskSpec{
			"serve": {Instances: max(cfg.ServiceWorkers, 1), CPUMilli: 2000, MemoryMB: 4096, DurationMS: clampMS(lifeMS)},
		},
	}
	j, err := dp.newJob(id, dpService, gateway.ClassService, desc, 0)
	if err != nil {
		return nil, err
	}
	j.svcOps = cfg.ServiceOps
	return j, nil
}

// newJob wraps a validated job description in the harness's record of it.
func (dp *dataplaneLoad) newJob(id string, kind dpKind, class gateway.Class, desc *job.Description, dataMB float64) (*dataJob, error) {
	if err := desc.Validate(); err != nil {
		return nil, fmt.Errorf("scale: dataplane job %s: %w", id, err)
	}
	order, _ := desc.TopologicalOrder()
	return &dataJob{
		application: application{h: dp.h, name: id, class: class},
		dp:          dp, kind: kind, desc: desc, order: order, dataMB: dataMB,
		placed: make([]dense.Map[int], len(order)),
	}, nil
}

// spawn is the gateway's OnRegistered callback: launch the job's JobMaster,
// which registers its application master and releases the root tasks.
func (dp *dataplaneLoad) spawn(gj gateway.Job, row int32) {
	h := dp.h
	j := dp.byID[gj.ID]
	if j == nil {
		return
	}
	h.classes.admission[j.class].Observe(float64(h.eng.Now()-j.submitAt) / float64(sim.Millisecond))
	jh, err := h.cl.SubmitJob(j.desc, core.JobOptions{Config: job.Config{
		QuotaGroup: gj.Class.QuotaGroup(), Priority: classPriority(j.class),
		FullSyncInterval: cmp.Or(h.cfg.FullSyncEvery, 10*sim.Second),
		OnDone:           j.complete, Observer: j,
	}})
	if err != nil {
		return // planned descriptions validate
	}
	j.am, j.row = jh.JM.AM(), row
	h.apps = append(h.apps, &j.application)
	if j.kind == dpService && j.svcOps > 0 {
		h.eng.PostFunc(h.cfg.ServiceOpEvery, j.svcTick)
	}
}

// OnGrant implements job.Observer: the grant takes the observed-decision
// path, is booked as a placement of its stage and, for a batch job, is
// classified by the locality level at which it met the JobMaster's demand.
func (j *dataJob) OnGrant(unitID int, machine int32, count int) {
	j.h.granted(&j.application, unitID, machine, count)
	*j.placed[unitID-1].Put(uint64(uint32(machine))) += count
	if j.kind != dpService {
		j.dp.loc[j.am.GrantLevel()] += uint64(count)
	}
}

// OnRevoke implements job.Observer.
func (j *dataJob) OnRevoke(unitID int, machine int32, count int) {
	j.h.revoked(&j.application, unitID, machine, count)
}

// complete is the JobMaster's OnDone: account the job and finish it.
func (j *dataJob) complete(*job.JobMaster) {
	h, dp := j.h, j.dp
	if j.kind != dpService {
		dp.makespan.Observe(float64(h.eng.Now()-j.submitAt) / float64(sim.Millisecond))
		dp.accountShuffle(j)
	}
	if j.kind == dpGraySort && h.cfg.VerifyRecords > 0 {
		every := max(h.cfg.VerifySampleEvery, 1)
		if int(jobMix(j.name)%uint64(every)) == 0 {
			dp.verifyGraySort(j, h.cfg.VerifyRecords)
		}
	}
	h.finish(&j.application)
	dp.completedJobs++
}

// accountShuffle attributes a finished job's task-to-task volume. A root
// task's volume is the job's data size and every task forwards its input
// split evenly across its downstream pipes; each pipe is an all-to-all
// shuffle, so the share of it read on the machine that produced it is the
// overlap of the two stages' placements.
func (dp *dataplaneLoad) accountShuffle(j *dataJob) {
	inMB := make([]float64, len(j.order))
	for u, t := range j.order {
		ups := j.desc.Upstream(t)
		if len(ups) == 0 {
			inMB[u] = j.dataMB
			continue
		}
		for _, up := range ups {
			src := slices.Index(j.order, up)
			mb := inMB[src] / float64(len(j.desc.Downstream(up)))
			inMB[u] += mb
			local := mb * overlap(&j.placed[src], &j.placed[u])
			dp.localMB += local
			dp.shuffledMB += mb - local
		}
	}
}

// overlap is Σ over machines of the product of their shares of a's and b's
// containers.
func overlap(a, b *dense.Map[int]) float64 {
	var na, nb, both float64
	for _, c := range a.Cells() {
		na += float64(c.Val)
	}
	for _, c := range b.Cells() {
		nb += float64(c.Val)
		both += float64(c.Val) * float64(a.Get(c.Key))
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return both / (na * nb)
}

// svcTick runs one service operation and re-arms itself while the job is
// live and operations remain.
func (j *dataJob) svcTick() {
	if j.done || j.svcOps <= 0 {
		return
	}
	j.svcOps--
	j.dp.runServiceOp(j)
	if j.svcOps > 0 && !j.done {
		j.h.eng.PostFunc(j.h.cfg.ServiceOpEvery, j.svcTick)
	}
}

// runServiceOp executes one real streamline round, alternating between a
// hash-partitioned word count and a range-partitioned sort, and asserts
// record conservation — the service job's "request serving" is the data
// plane actually computing.
func (dp *dataplaneLoad) runServiceOp(j *dataJob) {
	dp.svcOpsRun++
	mix := jobMix(j.name) + uint64(j.svcOps)*0x9e3779b97f4a7c15
	const nrec = 256
	records := make([]streamline.Record, nrec)
	x := mix
	for i := range records {
		x = x*6364136223846793005 + 1442695040888963407
		records[i] = streamline.Record{
			Key:   []byte(gwName("w", int(x>>33%97), 4)),
			Value: []byte{1},
		}
	}
	if mix%2 == 0 {
		dp.serviceWordCount(records)
	} else {
		dp.serviceRangeSort(records)
	}
}

// serviceWordCount: two map halves through MapSide, buckets reduced with a
// counting reducer; the counted total must equal the input record count.
func (dp *dataplaneLoad) serviceWordCount(records []streamline.Record) {
	const buckets = 4
	counting := func(key []byte, values [][]byte) []streamline.Record {
		total := 0
		for _, v := range values {
			total += len(v)
		}
		return []streamline.Record{{Key: key, Value: []byte(strconv.Itoa(total))}}
	}
	half := len(records) / 2
	p1, err1 := streamline.MapSide(records[:half], buckets, nil)
	p2, err2 := streamline.MapSide(records[half:], buckets, nil)
	if err1 != nil || err2 != nil {
		dp.svcOpFail++
		return
	}
	total := 0
	for b := 0; b < buckets; b++ {
		out, err := streamline.ReduceSide([]streamline.Run{p1[b], p2[b]}, counting)
		if err != nil {
			dp.svcOpFail++
			return
		}
		for _, r := range out {
			n, _ := strconv.Atoi(string(r.Value))
			total += n
		}
	}
	if total != len(records) {
		dp.svcOpFail++
	}
}

// serviceRangeSort: Terasort in miniature — range-partition on fixed
// splits, sort each bucket, and check the concatenation is globally sorted
// with no record lost.
func (dp *dataplaneLoad) serviceRangeSort(records []streamline.Record) {
	splits := [][]byte{[]byte("w0024"), []byte("w0048"), []byte("w0072")}
	parts, err := streamline.RangePartition(records, splits)
	if err != nil {
		dp.svcOpFail++
		return
	}
	var all streamline.Run
	for i := range parts {
		streamline.Sort(parts[i])
		all = append(all, parts[i]...)
	}
	if len(all) != len(records) || !all.Sorted() {
		dp.svcOpFail++
	}
}

// verifyGraySort replays the job's data movement through the real graysort
// kernels at a sampled scale: every "map task" generates records from the
// job's deterministic seed and range-partitions them across the job width;
// one sampled partition is then sorted per run and k-way merged — the
// merged output must be sorted and conserve the records routed to it.
func (dp *dataplaneLoad) verifyGraySort(j *dataJob, recordsPerMap int) {
	w := j.width
	if w <= 0 {
		return
	}
	mix := jobMix(j.name)
	rng := rand.New(rand.NewSource(int64(mix)))
	bucket := int(mix >> 32 % uint64(w))
	runs := make([]graysort.Records, 0, w)
	expect := 0
	for m := 0; m < w; m++ {
		recs := graysort.Generate(rng, recordsPerMap)
		parts := graysort.Partition(recs, w)
		total := 0
		for _, p := range parts {
			total += p.Count()
		}
		if total != recs.Count() {
			dp.verifyFail++
			return
		}
		run := graysort.Sort(parts[bucket])
		expect += run.Count()
		runs = append(runs, run)
	}
	merged := graysort.Merge(runs)
	if merged.Count() != expect || !graysort.Sorted(merged) {
		dp.verifyFail++
		return
	}
	dp.verified++
}

// report assembles the DataplaneStats section.
func (dp *dataplaneLoad) report(res *Result) {
	cfg := dp.h.cfg
	s := &DataplaneStats{
		GraySortJobs:          cfg.GraySortJobs,
		DAGJobs:               cfg.DAGJobs,
		ServiceJobs:           cfg.ServiceJobs,
		CompletedJobs:         dp.completedJobs,
		MakespanMeanMS:        dp.makespan.Mean(),
		MakespanP50MS:         dp.makespan.Quantile(0.5),
		MakespanP99MS:         dp.makespan.Quantile(0.99),
		MakespanMaxMS:         dp.makespan.Max(),
		LocalityMachineGrants: dp.loc[resource.LocalityMachine],
		LocalityRackGrants:    dp.loc[resource.LocalityRack],
		LocalityRemoteGrants:  dp.loc[resource.LocalityCluster],
		ShuffledMB:            dp.shuffledMB,
		LocalMB:               dp.localMB,
		VerifiedPartitions:    dp.verified,
		VerifyFailures:        dp.verifyFail,
		ServiceOpsRun:         dp.svcOpsRun,
		ServiceOpFailures:     dp.svcOpFail,
		Service:               dp.h.classes.stats(gateway.ClassService),
		Batch:                 dp.h.classes.stats(gateway.ClassBatch),
	}
	if total := s.LocalityMachineGrants + s.LocalityRackGrants + s.LocalityRemoteGrants; total > 0 {
		s.LocalityHitRatePct = 100 * float64(s.LocalityMachineGrants+s.LocalityRackGrants) / float64(total)
	}
	res.Units, res.Dataplane = dp.units, s
}

func clampMS(ms int64) int64 {
	if ms < 50 {
		return 50
	}
	return ms
}
