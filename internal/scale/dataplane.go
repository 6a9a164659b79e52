package scale

// Dataplane mode: the paper's data plane running on the scheduled cluster.
// Instead of synthetic hold/return churn, the workload is real jobs built
// from the data-plane packages, submitted through the multi-tenant gateway
// and executed as staged application masters over the usual master/agent
// stack:
//
//   - GraySort jobs (§5.3): a map → sort → merge chain whose stage widths
//     come from the input file's Pangu chunk count and whose simulated I/O
//     durations come from the graysort hardware phase model. Map demand is
//     pinned to the chunks' replica machines (the data-locality signal),
//     sort demand to wherever map actually ran (container-reuse locality),
//     and a sampled subset of jobs re-runs the real graysort kernels —
//     generate, range-partition, per-run sort, k-way merge — to verify one
//     partition's output end to end.
//   - DAG pipelines: the Figure 6 diamond (T1 → {T2, T3} → T4) expressed as
//     an internal/job description, T1 reading a Pangu file with replica
//     locality and the inner stages demanding the racks their upstreams
//     executed on. Stages are released incrementally: a task's demand is
//     sent only when every upstream finished (§3.1's incremental
//     scheduling).
//   - Streamline service jobs: long-running residents in the gateway's
//     service class, sharing the cluster with the batch jobs above and
//     periodically running real streamline map/reduce rounds (hash
//     word count and a range-partitioned sort) whose conservation
//     properties are asserted.
//
// The application-level measurements — job makespan, locality hit rate,
// MB shuffled versus read locally, per-class admission and demand-to-grant
// percentiles with SLO attainment — land in the `dataplane` section of
// BENCH_scale.json next to the control-plane decision metrics, with CI
// budget gates like the existing alloc/message ones.

import (
	"fmt"
	"math/rand"
	"strconv"

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

// dpLocality is how a stage derives its locality demand.
type dpLocality int

const (
	locCluster          dpLocality = iota // no placement preference
	locChunks                             // replica machines of the stage's input file
	locUpstreamMachines                   // exactly where the upstream stage executed
	locUpstreamRacks                      // the racks covering upstream placements
)

// dpStage is one task of a data-plane job, scheduled as one ScheduleUnit
// and executed in a single wave of `need` containers.
type dpStage struct {
	name     string
	unitID   int
	need     int
	size     resource.Vector
	duration sim.Time
	locality dpLocality
	// inputMB is the task-to-task volume flowing into this stage (zero for
	// stages reading only from the DFS); it feeds the shuffle accounting.
	inputMB float64

	upstreams          int // not-yet-finished upstream stages
	started, finished  bool
	executed, inFlight int

	// Deterministic locality demand: hint targets in first-seen order, and
	// the machine/rack sets that classify a grant as machine- or rack-local.
	hintMachines   []int32
	hintCounts     []int
	hintRacks      []int32
	hintRackCounts []int
	wantM          map[int32]bool
	wantR          map[int32]bool

	// Execution placements in first-seen order, consumed by downstream
	// stages for locality demand and shuffle accounting.
	placeOrder []int32
	placeCount map[int32]int

	// Upstream placement snapshot (filled when the stage becomes ready).
	srcOrder  []int32
	srcCounts []int
	srcTotal  int
}

// dpJob is one data-plane job: a DAG of stages behind one application
// master, admitted through the gateway.
type dpJob struct {
	application
	dp   *dataplaneLoad
	kind dpKind

	desc   *job.Description
	order  []string
	stages map[string]*dpStage

	dataMB    float64
	inputFile string
	width     int // graysort partition width (map/sort/merge stage width)

	submitAt  sim.Time
	remaining int

	svcOps int // remaining service operations
}

// dataplaneLoad is the data-plane workload: the planned jobs, the Pangu
// namespace their inputs live in, and the application-level account.
type dataplaneLoad struct {
	wholeRun
	submitted int
	fs        *pangu.FS
	byID      map[string]*dpJob
	units     int

	makespan obs.Dist

	locMachine, locRack, locRemote uint64
	shuffledMB, localMB            float64

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

	// Locality classification of every grant to a locality-tracked stage:
	// on a wanted machine (a chunk replica or an upstream's machine), in a
	// wanted rack, or remote. HitRatePct = (machine + rack) / total.
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
		byID:     make(map[string]*dpJob),
	}
}

func (dp *dataplaneLoad) frontDoor() *gateway.Config { return dp.h.gatewayConfig(dp.spawn) }

func (dp *dataplaneLoad) drained() bool {
	return dp.submitted >= dp.h.cfg.GatewaySubmissions && dp.h.gw.Drained()
}

// arm plans every job up front (Pangu files and stage graphs are part of the
// seeded workload, independent of scheduling timing) and submits them through
// the gateway spread over ArrivalWindow, classes interleaved so service and
// batch arrive mixed.
func (dp *dataplaneLoad) arm() error {
	h, cfg := dp.h, dp.h.cfg
	dp.fs = pangu.New(h.top, rand.New(rand.NewSource(cfg.Seed+2)))
	kinds := []struct {
		n    int
		plan func(int) (*dpJob, error)
	}{{cfg.ServiceJobs, dp.planService}, {cfg.GraySortJobs, dp.planGraySort}, {cfg.DAGJobs, dp.planDAG}}
	var plans []*dpJob
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
func (dp *dataplaneLoad) planGraySort(i int) (*dpJob, error) {
	cfg := dp.h.cfg
	id := gwName("gs-", i, 4)
	dataMB := cfg.GraySortDataMB
	if dataMB <= 0 {
		dataMB = pangu.DefaultChunkSizeMB
	}
	file := "pangu://" + id + "/input"
	f, err := dp.fs.Create(file, dataMB)
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
	j, err := dp.newJob(id, dpGraySort, gateway.ClassBatch, desc, float64(dataMB), file)
	if err != nil {
		return nil, err
	}
	j.width = w
	j.stages["sort"].locality = locUpstreamMachines
	return j, nil
}

// planDAG builds one Figure 6 diamond: T1 reads a Pangu file, T2/T3 fan out
// with rack affinity to T1's placements, T4 joins them.
func (dp *dataplaneLoad) planDAG(i int) (*dpJob, error) {
	id := gwName("dag-", i, 4)
	const t1Width = 12
	dataMB := int64(t1Width * pangu.DefaultChunkSizeMB)
	file := "pangu://" + id + "/input"
	if _, err := dp.fs.Create(file, dataMB); err != nil {
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
	return dp.newJob(id, dpDAG, gateway.ClassBatch, desc, float64(dataMB), file)
}

// planService builds one long-running service resident: a single unit of
// ServiceWorkers containers held for the job's configured lifetime, running
// a streamline operation round every ServiceOpEvery.
func (dp *dataplaneLoad) planService(i int) (*dpJob, error) {
	cfg := dp.h.cfg
	id := gwName("svc-", i, 4)
	lifeMS := int64(cfg.ServiceOps)*int64(cfg.ServiceOpEvery/sim.Millisecond) + 2000
	desc := &job.Description{
		Name: id,
		Tasks: map[string]job.TaskSpec{
			"serve": {Instances: max(cfg.ServiceWorkers, 1), CPUMilli: 2000, MemoryMB: 4096, DurationMS: clampMS(lifeMS)},
		},
	}
	j, err := dp.newJob(id, dpService, gateway.ClassService, desc, 0, "")
	if err != nil {
		return nil, err
	}
	j.svcOps = cfg.ServiceOps
	return j, nil
}

// newJob turns a job description into staged execution state. Stage input
// volumes follow a pass-through model: a root stage's volume is the job's
// data size, every stage forwards its input split evenly across its
// downstream pipes.
func (dp *dataplaneLoad) newJob(id string, kind dpKind, class gateway.Class, desc *job.Description, dataMB float64, inputFile string) (*dpJob, error) {
	if err := desc.Validate(); err != nil {
		return nil, fmt.Errorf("scale: dataplane job %s: %w", id, err)
	}
	order, err := desc.TopologicalOrder()
	if err != nil {
		return nil, fmt.Errorf("scale: dataplane job %s: %w", id, err)
	}
	j := &dpJob{
		application: application{h: dp.h, name: id, class: class, pendingReq: make([]sim.Time, len(order)+1)},
		dp:          dp, kind: kind,
		desc: desc, order: order, stages: make(map[string]*dpStage, len(order)),
		dataMB: dataMB, inputFile: inputFile,
		remaining: len(order),
	}
	inMB := make(map[string]float64, len(order))
	for idx, t := range order {
		spec := desc.Tasks[t]
		st := &dpStage{
			name:       t,
			unitID:     idx + 1,
			need:       spec.Instances,
			size:       resource.New(spec.CPUMilli, spec.MemoryMB),
			duration:   sim.Time(spec.DurationMS) * sim.Millisecond,
			upstreams:  len(desc.Upstream(t)),
			placeCount: make(map[int32]int),
		}
		if st.upstreams == 0 {
			inMB[t] = dataMB
			if inputFile != "" && len(desc.InputFiles(t)) > 0 {
				st.locality = locChunks
			}
		} else {
			st.locality = locUpstreamRacks
			for _, up := range desc.Upstream(t) {
				st.inputMB += inMB[up] / float64(len(desc.Downstream(up)))
			}
			inMB[t] = st.inputMB
		}
		j.stages[t] = st
	}
	// Chunk-locality demand is known at plan time.
	for _, t := range order {
		if st := j.stages[t]; st.locality == locChunks {
			j.prepareChunkLocality(st)
		}
	}
	return j, nil
}

// prepareChunkLocality derives a root stage's locality demand from its
// input file's chunk placement: one machine-level hint per chunk on the
// chunk's first replica, with every replica (and its rack) counting as a
// locality hit.
func (j *dpJob) prepareChunkLocality(st *dpStage) {
	h := j.h
	st.wantM = make(map[int32]bool)
	st.wantR = make(map[int32]bool)
	counts := make(map[int32]int)
	f, err := j.dp.fs.Open(j.inputFile)
	if err != nil {
		st.locality = locCluster
		return
	}
	for _, c := range f.Chunks {
		for ri, rep := range c.Replicas {
			m := h.top.MachineID(rep)
			if m < 0 {
				continue
			}
			st.wantM[m] = true
			st.wantR[h.top.RackIDOf(m)] = true
			if ri == 0 {
				if counts[m] == 0 {
					st.hintMachines = append(st.hintMachines, m)
				}
				counts[m]++
			}
		}
	}
	st.hintCounts = make([]int, len(st.hintMachines))
	for i, m := range st.hintMachines {
		st.hintCounts[i] = counts[m]
	}
}

// prepareUpstreamLocality derives a ready stage's locality demand and its
// shuffle-accounting source from where the upstream stages actually ran.
func (j *dpJob) prepareUpstreamLocality(st *dpStage) {
	h := j.h
	srcCount := make(map[int32]int)
	for _, up := range j.desc.Upstream(st.name) {
		us := j.stages[up]
		for _, m := range us.placeOrder {
			if srcCount[m] == 0 {
				st.srcOrder = append(st.srcOrder, m)
			}
			srcCount[m] += us.placeCount[m]
			st.srcTotal += us.placeCount[m]
		}
	}
	st.srcCounts = make([]int, len(st.srcOrder))
	for i, m := range st.srcOrder {
		st.srcCounts[i] = srcCount[m]
	}
	if st.locality == locCluster || st.srcTotal == 0 {
		return
	}
	st.wantM = make(map[int32]bool, len(st.srcOrder))
	st.wantR = make(map[int32]bool)
	for _, m := range st.srcOrder {
		st.wantM[m] = true
		st.wantR[h.top.RackIDOf(m)] = true
	}
	switch st.locality {
	case locUpstreamMachines:
		// Demand exactly the upstream placement distribution (container
		// reuse: the sort stage wants the machines holding map output).
		st.hintMachines = st.srcOrder
		st.hintCounts = st.srcCounts
	case locUpstreamRacks:
		var racks []int32
		seen := make(map[int32]bool)
		for _, m := range st.srcOrder {
			r := h.top.RackIDOf(m)
			if !seen[r] {
				seen[r] = true
				racks = append(racks, r)
			}
		}
		st.hintRacks = racks
		st.hintRackCounts = make([]int, len(racks))
		for i := 0; i < st.need; i++ {
			st.hintRackCounts[i%len(racks)]++
		}
	}
}

// hintsFor builds the stage's demand hints, machine preferences first, rack
// preferences next, any remainder cluster-wide.
func (j *dpJob) hintsFor(st *dpStage) []resource.LocalityHint {
	h := j.h
	var hints []resource.LocalityHint
	rest := st.need
	for i, m := range st.hintMachines {
		if rest <= 0 {
			break
		}
		c := min(st.hintCounts[i], rest)
		if c <= 0 {
			continue
		}
		hints = append(hints, resource.LocalityHint{
			Type: resource.LocalityMachine, Value: h.top.MachineName(m), Count: c,
		})
		rest -= c
	}
	for i, r := range st.hintRacks {
		if rest <= 0 {
			break
		}
		c := min(st.hintRackCounts[i], rest)
		if c <= 0 {
			continue
		}
		hints = append(hints, resource.LocalityHint{
			Type: resource.LocalityRack, Value: h.top.RackName(r), Count: c,
		})
		rest -= c
	}
	if rest > 0 {
		hints = append(hints, resource.LocalityHint{Type: resource.LocalityCluster, Count: rest})
	}
	return hints
}

// spawn is the gateway's OnRegistered callback: boot the job's application
// master and release its root stages.
func (dp *dataplaneLoad) spawn(gj gateway.Job) {
	h := dp.h
	j := dp.byID[gj.ID]
	if j == nil {
		return
	}
	h.classes.admission[j.class].Observe(float64(h.eng.Now()-j.submitAt) / float64(sim.Millisecond))
	units := make([]resource.ScheduleUnit, 0, len(j.order))
	for _, t := range j.order {
		st := j.stages[t]
		units = append(units, resource.ScheduleUnit{
			ID: st.unitID, Priority: classPriority(j.class), Size: st.size, MaxCount: st.need,
		})
	}
	h.launch(&j.application, j, gj.Class.QuotaGroup(), units)
	// Root stages demand after the registration round-trip settles; inner
	// stages are released incrementally as upstreams finish.
	h.eng.PostFunc(sim.Millisecond, func() {
		for _, t := range j.order {
			if st := j.stages[t]; st.upstreams == 0 && !st.started {
				j.startStage(st)
			}
		}
	})
}

func (j *dpJob) startStage(st *dpStage) {
	st.started = true
	j.pendingReq[st.unitID] = j.h.eng.Now()
	j.am.Request(st.unitID, j.hintsFor(st)...)
	if j.kind == dpService && j.svcOps > 0 {
		j.h.eng.PostFunc(j.h.cfg.ServiceOpEvery, j.svcTick)
	}
}

func (j *dpJob) stageAt(unitID int) *dpStage {
	if unitID < 1 || unitID > len(j.order) {
		return nil
	}
	return j.stages[j.order[unitID-1]]
}

// OnGrant implements appmaster.Callbacks.
func (j *dpJob) OnGrant(unitID int, machine int32, count int) {
	h, dp := j.h, j.dp
	h.granted(&j.application, unitID, machine, count)
	st := j.stageAt(unitID)
	if st == nil || j.done {
		return
	}
	// One-wave execution: accept what the stage still needs, hand back the
	// rest immediately (a late regrant racing a revocation's re-demand).
	use := min(count, st.need-st.executed-st.inFlight)
	if excess := count - use; excess > 0 {
		j.am.ReturnContainers(unitID, machine, excess)
	}
	if use <= 0 {
		return
	}
	st.inFlight += use
	if st.locality != locCluster && st.wantM != nil {
		switch {
		case st.wantM[machine]:
			dp.locMachine += uint64(use)
		case st.wantR[h.top.RackIDOf(machine)]:
			dp.locRack += uint64(use)
		default:
			dp.locRemote += uint64(use)
		}
	}
	h.eng.PostFunc(st.duration, func() { j.holdDone(st, machine, use) })
}

// holdDone completes one grant's work slice: the containers return to the
// master and the stage's executed count advances. Containers revoked
// mid-hold were already re-demanded by OnRevoke, so the return is clamped
// to what the application master still holds.
func (j *dpJob) holdDone(st *dpStage, machine int32, count int) {
	if j.done {
		return
	}
	if held := j.am.Held(st.unitID, machine); held < count {
		count = held
	}
	if count <= 0 {
		return
	}
	j.am.ReturnContainers(st.unitID, machine, count)
	st.inFlight -= count
	if st.inFlight < 0 {
		st.inFlight = 0
	}
	if st.finished {
		return
	}
	if st.placeCount[machine] == 0 {
		st.placeOrder = append(st.placeOrder, machine)
	}
	st.placeCount[machine] += count
	j.dp.accountRead(st, machine, count)
	st.executed += count
	if st.executed >= st.need {
		st.finished = true
		j.stageDone(st)
	}
}

// accountRead attributes the stage's share of task-to-task input volume:
// bytes whose upstream producer ran on the same machine are local reads,
// the rest crossed the network (the shuffle).
func (dp *dataplaneLoad) accountRead(st *dpStage, machine int32, count int) {
	if st.inputMB <= 0 || st.srcTotal == 0 {
		return
	}
	share := st.inputMB * float64(count) / float64(st.need)
	for i, m := range st.srcOrder {
		mb := share * float64(st.srcCounts[i]) / float64(st.srcTotal)
		if m == machine {
			dp.localMB += mb
		} else {
			dp.shuffledMB += mb
		}
	}
}

func (j *dpJob) stageDone(st *dpStage) {
	j.remaining--
	for _, dn := range j.desc.Downstream(st.name) {
		ds := j.stages[dn]
		ds.upstreams--
		if ds.upstreams == 0 && !ds.started {
			j.prepareUpstreamLocality(ds)
			j.startStage(ds)
		}
	}
	if j.remaining == 0 {
		j.complete()
	}
}

func (j *dpJob) complete() {
	h, dp := j.h, j.dp
	if j.kind != dpService {
		dp.makespan.Observe(float64(h.eng.Now()-j.submitAt) / float64(sim.Millisecond))
	}
	if j.kind == dpGraySort && h.cfg.VerifyRecords > 0 {
		every := max(h.cfg.VerifySampleEvery, 1)
		if int(jobMix(j.name)%uint64(every)) == 0 {
			dp.verifyGraySort(j, h.cfg.VerifyRecords)
		}
	}
	// A grant that arrives after this answers no demand: with nothing
	// pending, the shared granted path observes no demand-to-grant for it.
	clear(j.pendingReq)
	h.finish(&j.application)
	dp.completedJobs++
}

// OnRevoke implements appmaster.Callbacks.
func (j *dpJob) OnRevoke(unitID int, machine int32, count int) {
	j.h.revoked(&j.application, unitID, machine, count)
	st := j.stageAt(unitID)
	if st == nil || j.done {
		return
	}
	st.inFlight = max(st.inFlight-count, 0)
	if !st.finished {
		// Failover took the containers mid-stage; anywhere in the cluster
		// will do for the retry.
		j.demand(unitID, count)
	}
}

// svcTick runs one service operation and re-arms itself while the job is
// live and operations remain.
func (j *dpJob) svcTick() {
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
func (dp *dataplaneLoad) runServiceOp(j *dpJob) {
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
func (dp *dataplaneLoad) verifyGraySort(j *dpJob, recordsPerMap int) {
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
		LocalityMachineGrants: dp.locMachine,
		LocalityRackGrants:    dp.locRack,
		LocalityRemoteGrants:  dp.locRemote,
		ShuffledMB:            dp.shuffledMB,
		LocalMB:               dp.localMB,
		VerifiedPartitions:    dp.verified,
		VerifyFailures:        dp.verifyFail,
		ServiceOpsRun:         dp.svcOpsRun,
		ServiceOpFailures:     dp.svcOpFail,
		Service:               dp.h.classes.stats(gateway.ClassService),
		Batch:                 dp.h.classes.stats(gateway.ClassBatch),
	}
	if total := dp.locMachine + dp.locRack + dp.locRemote; total > 0 {
		s.LocalityHitRatePct = 100 * float64(dp.locMachine+dp.locRack) / float64(total)
	}
	res.Units, res.Dataplane = dp.units, s
}

func clampMS(ms int64) int64 {
	if ms < 50 {
		return 50
	}
	return ms
}
