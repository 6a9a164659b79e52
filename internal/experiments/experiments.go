// Package experiments runs the paper's evaluation (§5) on the simulated
// cluster: each function returns the numbers one table or figure reports.
// The root bench suite (bench_test.go) is the one entry point that runs
// them at the sizes below and reports every number; EXPERIMENTS.md records
// paper-vs-measured for all of them.
package experiments

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/graysort"
	"repro/internal/job"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// SyntheticOptions scales the §5.2 synthetic-workload experiment (Figures
// 9 and 10, Table 2) down from the paper's 5000 nodes / 1000 jobs.
type SyntheticOptions struct {
	Racks           int
	MachinesPerRack int
	ConcurrentJobs  int
	// JobScale divides the paper's per-job instance counts.
	JobScale int
	// DurationSimSec is how long (virtual) the steady-state phase runs.
	DurationSimSec int
	// SampleEverySec is the utilization sampling period.
	SampleEverySec int
	Seed           int64
}

// DefaultSyntheticOptions is a laptop-sized rendition: 200 machines (1/25
// of the paper's 5000), 100 concurrent jobs (1/10), instance counts at 1/20
// so aggregate demand exceeds cluster capacity the way the paper's full
// 1000-job load does.
func DefaultSyntheticOptions() SyntheticOptions {
	return SyntheticOptions{
		Racks: 20, MachinesPerRack: 10,
		ConcurrentJobs: 100, JobScale: 20,
		DurationSimSec: 180, SampleEverySec: 5,
		Seed: 1,
	}
}

// SyntheticResult carries everything Figures 9/10 and Table 2 report.
type SyntheticResult struct {
	// Fig 9: per-request scheduling time (real wall time of the real
	// scheduler), milliseconds: the mean and the peak the paper reports, over
	// SchedCount scheduling passes.
	SchedMeanMS float64
	SchedMaxMS  float64
	SchedCount  int

	// Fig 10 (fractions of FM_total, steady state).
	MemPlannedFrac  float64
	MemObtainedFrac float64
	MemFAFrac       float64
	CPUPlannedFrac  float64
	CPUObtainedFrac float64
	CPUFAFrac       float64

	// Table 2 rows (seconds).
	AvgJobRunSec        float64
	AvgJMStartSec       float64
	AvgWorkerStartSec   float64
	AvgInstanceOverhead float64
	CompletedJobs       int
	TotalInstancesRun   int
}

// RunSynthetic executes the §5.2 experiment: ConcurrentJobs jobs held
// running (a finished job is immediately replaced), utilization sampled on
// a fixed period, scheduling times measured around the live scheduler.
func RunSynthetic(opt SyntheticOptions) (*SyntheticResult, error) {
	c, err := core.NewCluster(core.Config{
		Racks: opt.Racks, MachinesPerRack: opt.MachinesPerRack, Seed: opt.Seed,
		Agent: agent.Config{
			// Table 2 attributes 11.84 s of worker start to downloading
			// ~400 MB worker binaries; reproduce it.
			WorkerStartDelay: 11_840 * sim.Millisecond,
		},
	})
	if err != nil {
		return nil, err
	}
	gen := trace.DefaultSyntheticConfig(opt.JobScale)
	// Keep per-instance durations short enough that jobs turn over inside
	// the scaled run window (the paper's 10 s – 10 min averages target a
	// 30-minute experiment).
	gen.MinDurationMS = 2_000
	gen.MaxDurationMS = 30_000
	// Bound the widest scaled jobs so no single job swallows the scaled
	// cluster.
	gen.MaxWorkersPerTask = 2 * opt.Racks * opt.MachinesPerRack

	res := &SyntheticResult{}
	live := make(map[string]*core.JobHandle)
	jobSeq := 0
	var jmStartTotal, jobRunTotal float64
	var workerStartTotal, instOverTotal float64
	var overheadJobs int

	var submit func()
	submit = func() {
		i := jobSeq
		jobSeq++
		desc := gen.Job(c.Eng.Rand(), i)
		res.TotalInstancesRun += desc.TotalInstances()
		h, err := c.SubmitJob(desc, core.JobOptions{
			// Paper Table 2: JobMaster start overhead 1.91 s.
			StartDelay: 1910 * sim.Millisecond,
			Config: job.Config{
				Backup: job.BackupConfig{Enabled: true},
				OnDone: nil,
			},
		})
		if err != nil {
			return
		}
		live[desc.Name] = h
		h.OnJobDone(func() {
			res.CompletedJobs++
			jobRunTotal += h.ElapsedSeconds()
			jmStartTotal += (h.StartedAt - h.SubmittedAt).Seconds()
			if h.JM != nil {
				ws, inst := h.JM.OverheadStats()
				workerStartTotal += ws
				instOverTotal += inst
				overheadJobs++
			}
			delete(live, desc.Name)
			submit() // keep the concurrency level
		})
	}
	for i := 0; i < opt.ConcurrentJobs; i++ {
		submit()
	}

	// Utilization sampling. Warm-up covers JobMaster starts plus the first
	// wave of worker downloads; from its end on, every sample adds FM_total,
	// FM_planned, AM_obtained and FA_planned, per dimension, to a running sum
	// in sample order.
	warmup := 60 * sim.Second
	dims := [2]string{resource.Memory, resource.CPU}
	var sums [4][2]float64
	samples := 0
	c.Eng.Every(sim.Time(opt.SampleEverySec)*sim.Second, func() {
		if c.Eng.Now() < warmup {
			return
		}
		var obtained resource.Vector
		for _, h := range live {
			if h.JM != nil {
				obtained = obtained.Add(h.JM.AM().ObtainedTotal())
			}
		}
		for s, v := range [4]resource.Vector{c.FMTotal(), c.FMPlanned(), obtained, c.FAPlanned()} {
			for d, dim := range dims {
				sums[s][d] += float64(v.Get(dim))
			}
		}
		samples++
	})
	c.Run(warmup + sim.Time(opt.DurationSimSec)*sim.Second)

	// Fig 9 from the masters' scheduling-pass counters (the standby's are
	// zero unless it was promoted).
	var passes int
	var totalNS, maxNS int64
	for _, m := range c.Masters {
		if m != nil {
			p, tot, peak := m.SchedStats()
			passes, totalNS, maxNS = passes+p, totalNS+tot, max(maxNS, peak)
		}
	}
	res.SchedCount = passes
	if passes > 0 {
		res.SchedMeanMS = float64(totalNS) / float64(passes) / 1e6
	}
	res.SchedMaxMS = float64(maxNS) / 1e6

	// Fig 10 steady-state fractions: each series' mean over FM_total's.
	frac := func(s, d int) float64 {
		if sums[0][d] == 0 {
			return 0
		}
		return (sums[s][d] / float64(samples)) / (sums[0][d] / float64(samples))
	}
	res.MemPlannedFrac, res.CPUPlannedFrac = frac(1, 0), frac(1, 1)
	res.MemObtainedFrac, res.CPUObtainedFrac = frac(2, 0), frac(2, 1)
	res.MemFAFrac, res.CPUFAFrac = frac(3, 0), frac(3, 1)

	if res.CompletedJobs > 0 {
		res.AvgJobRunSec = jobRunTotal / float64(res.CompletedJobs)
		res.AvgJMStartSec = jmStartTotal / float64(res.CompletedJobs)
	}
	if overheadJobs > 0 {
		res.AvgWorkerStartSec = workerStartTotal / float64(overheadJobs)
		res.AvgInstanceOverhead = instOverTotal / float64(overheadJobs)
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Table 3 — fault injection
// ---------------------------------------------------------------------------

// FaultOptions scales the §5.4 experiment (paper: 300-node cluster, a sort
// job taking 1437 s fault-free).
type FaultOptions struct {
	Racks           int
	MachinesPerRack int
	// Instances and DurationMS size the sort-shaped workload.
	Instances  int
	Workers    int
	DurationMS int64
	Seed       int64
}

// DefaultFaultOptions is a 300-machine rendition matching the paper's
// cluster size. Many short waves per worker give the backup-instance
// scheme room to absorb stragglers, like the paper's sort workload.
func DefaultFaultOptions() FaultOptions {
	return FaultOptions{
		Racks: 30, MachinesPerRack: 10,
		Instances: 19200, Workers: 1200, DurationMS: 10_000,
		Seed: 1,
	}
}

// FaultRow is one Table 3 result line.
type FaultRow struct {
	Scenario    string
	Machines    int
	ElapsedSec  float64
	SlowdownPct float64
}

// RunFaultMatrix executes the fault-free run plus the 5%, 10%,
// 5%+master-kill and network-chaos scenarios and reports slowdowns relative
// to fault-free — Table 3 plus the §5.4 FuxiMasterFailure experiment, plus
// a partition/flap/delay-spike campaign the paper's process-fault rows
// cannot produce (partitioned machines keep running on state the rest of
// the cluster no longer sees).
func RunFaultMatrix(opt FaultOptions) ([]FaultRow, error) {
	run := func(camp *faults.Campaign, standby bool) (float64, error) {
		c, err := core.NewCluster(core.Config{
			Racks: opt.Racks, MachinesPerRack: opt.MachinesPerRack,
			Seed: opt.Seed, Standby: standby,
		})
		if err != nil {
			return 0, err
		}
		desc := &job.Description{
			Name: "sortjob",
			Tasks: map[string]job.TaskSpec{
				"map": {Instances: opt.Instances, CPUMilli: 1000, MemoryMB: 4096,
					DurationMS: opt.DurationMS, MaxWorkers: opt.Workers,
					NormalDurationMS: 2 * opt.DurationMS, DurationJitterPct: 20},
				"reduce": {Instances: opt.Instances / 2, CPUMilli: 1000, MemoryMB: 4096,
					DurationMS: opt.DurationMS, MaxWorkers: opt.Workers,
					NormalDurationMS: 2 * opt.DurationMS, DurationJitterPct: 20},
			},
			Pipes: []job.Pipe{{
				Source:      job.AccessPoint{AccessPoint: "map:out"},
				Destination: job.AccessPoint{AccessPoint: "reduce:in"},
			}},
		}
		h, err := c.SubmitJob(desc, core.JobOptions{Config: job.Config{
			Backup:           job.BackupConfig{Enabled: true},
			FullSyncInterval: 10 * sim.Second,
		}})
		if err != nil {
			return 0, err
		}
		if camp != nil {
			campaign := *camp
			campaign.Start = 10 * sim.Second
			campaign.Window = sim.Minute
			if _, skipped := c.Faults.ApplyCampaign(campaign, c.Eng.Rand()); skipped > 0 {
				return 0, fmt.Errorf("experiments: campaign skipped %d injections (cluster smaller than %d victims)",
					skipped, campaign.Total())
			}
		}
		limit := 4 * sim.Hour
		for !h.Done() && c.Now() < limit {
			c.Run(5 * sim.Second)
		}
		if !h.Done() {
			return 0, fmt.Errorf("experiments: fault run %v incomplete", camp)
		}
		return h.ElapsedSeconds(), nil
	}

	normal, err := run(nil, false)
	if err != nil {
		return nil, err
	}
	rows := []FaultRow{{Scenario: "fault-free", ElapsedSec: normal}}

	five := faults.Paper5Percent()
	ten := faults.Paper10Percent()
	fiveKill := faults.Paper5Percent()
	fiveKill.KillFuxiMaster = true
	// The network row matches the 5% scenarios' victim count (15 machines on
	// the paper's 300) but through the transport instead of the processes:
	// one 8-machine partition outliving the heartbeat timeout, link flaps,
	// and delay spikes reordering traffic.
	netChaos := faults.Campaign{
		NetworkPartition: 1, PartitionMachines: 8, PartitionFor: 10 * sim.Second,
		LinkFlap: 4, DelaySpike: 3, SpikeDelay: 5 * sim.Millisecond,
	}

	cases := []struct {
		name    string
		camp    faults.Campaign
		standby bool
	}{
		{"5% faults", five, false},
		{"10% faults", ten, false},
		{"5% faults + FuxiMaster kill", fiveKill, true},
		{"network chaos (partition+flap)", netChaos, false},
	}
	for _, cs := range cases {
		camp := cs.camp
		elapsed, err := run(&camp, cs.standby)
		if err != nil {
			return nil, err
		}
		victims := camp.Total() + camp.NetworkPartition*camp.PartitionMachines +
			camp.LinkFlap + camp.DelaySpike
		rows = append(rows, FaultRow{
			Scenario:    cs.name,
			Machines:    victims,
			ElapsedSec:  elapsed,
			SlowdownPct: 100 * (elapsed - normal) / normal,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Table 4 — GraySort
// ---------------------------------------------------------------------------

// GraySortResult carries the Table 4 reproduction.
type GraySortResult struct {
	FuxiOverhead     float64
	BaselineOverhead float64
	Fuxi             graysort.Result
	Baseline         graysort.Result
	Yahoo            graysort.Result
	PetaSort         graysort.Result
	ImprovementPct   float64
}

// MeasureGraySort reproduces Table 4's shape. Framework overhead factors
// are measured by running the sort-shaped workload through the real Fuxi
// stack and the YARN-style baseline on a scaled cluster; they combine with
// the hardware phase model. The Fuxi row additionally overlaps shuffle with
// map output (the Streamline pipeline), which the Hadoop-era baseline —
// materializing between phases — cannot. The headline improvement is the
// like-for-like comparison on the paper's 5000-node configuration.
func MeasureGraySort(seed int64) (*GraySortResult, error) {
	cfg := OverheadConfig{
		// GraySort on the paper's cluster runs ~4 waves of ~30 s tasks
		// per worker; the baseline pays the 11.84 s worker start (Table 2)
		// per task, Fuxi once per container.
		Nodes: 25, WorkersPerNode: 4, Waves: 4,
		TaskDurationMS: 30_000, WorkerStartDelayMS: 11_840,
		Seed: seed,
	}
	fuxiOver, err := MeasureFuxi(cfg)
	if err != nil {
		return nil, err
	}
	baseOver, err := MeasureBaseline(cfg)
	if err != nil {
		return nil, err
	}
	// streamlineOverlap credits Fuxi's Streamline library for overlapping
	// shuffle with map output; calibrated once (documented in
	// EXPERIMENTS.md) and held fixed across experiments.
	const streamlineOverlap = 0.22
	r := &GraySortResult{FuxiOverhead: fuxiOver, BaselineOverhead: baseOver}
	spec := graysort.SortSpec{DataTB: 100}
	if r.Fuxi, err = graysort.Estimate("Fuxi", graysort.PaperGraySortCluster, spec, fuxiOver, streamlineOverlap); err != nil {
		return nil, err
	}
	if r.Baseline, err = graysort.Estimate("YARN-style", graysort.PaperGraySortCluster, spec, baseOver, 0); err != nil {
		return nil, err
	}
	if r.Yahoo, err = graysort.Estimate("Yahoo-2012", graysort.YahooCluster,
		graysort.SortSpec{DataTB: 102.5}, baseOver, 0); err != nil {
		return nil, err
	}
	if r.PetaSort, err = graysort.Estimate("PetaSort", graysort.PaperPetaSortCluster,
		graysort.SortSpec{DataTB: 1000, SpillCompression: 1}, fuxiOver, streamlineOverlap); err != nil {
		return nil, err
	}
	if r.Baseline.ThroughputTB > 0 {
		r.ImprovementPct = 100 * (r.Fuxi.ThroughputTB - r.Baseline.ThroughputTB) / r.Baseline.ThroughputTB
	}
	return r, nil
}

// OverheadConfig shapes the scaled sort-shaped run used to measure a
// framework's scheduling overhead factor. The workload is Waves waves of
// one instance per worker across the whole scaled cluster, for a map phase
// and a reduce phase.
type OverheadConfig struct {
	// Nodes is the scaled cluster size (e.g. 50 standing in for 5000).
	Nodes int
	// WorkersPerNode concurrent containers per machine.
	WorkersPerNode int
	// Waves of instances each worker processes per phase.
	Waves int
	// TaskDurationMS is the per-instance execution time, derived from the
	// hardware model's per-phase time.
	TaskDurationMS int64
	// WorkerStartDelayMS is the process launch cost (binary download +
	// exec). Fuxi pays it once per worker; the baseline pays it once per
	// instance because containers are never reused.
	WorkerStartDelayMS int64
	Seed               int64
}

// IdealSec is the perfect-scheduler makespan: both phases run their waves
// back to back with zero scheduling cost (one worker start absorbed).
func (c OverheadConfig) IdealSec() float64 {
	return 2 * float64(c.Waves) * float64(c.TaskDurationMS) / 1000
}

func (c OverheadConfig) instances() int { return c.Nodes * c.WorkersPerNode * c.Waves }

// MeasureFuxi runs the sort-shaped DAG through the full Fuxi stack and
// returns the measured overhead factor (makespan / ideal). Fuxi pays the
// worker start cost once per container and reuses it across waves.
func MeasureFuxi(cfg OverheadConfig) (float64, error) {
	racks := (cfg.Nodes + 9) / 10
	perRack := (cfg.Nodes + racks - 1) / racks
	c, err := core.NewCluster(core.Config{
		Racks: racks, MachinesPerRack: perRack, Seed: cfg.Seed,
		Agent: agent.Config{
			WorkerStartDelay: sim.Time(cfg.WorkerStartDelayMS) * sim.Millisecond,
		},
	})
	if err != nil {
		return 0, err
	}
	n := cfg.instances()
	workers := cfg.Nodes * cfg.WorkersPerNode
	desc := &job.Description{
		Name: "graysort",
		Tasks: map[string]job.TaskSpec{
			"map": {Instances: n, CPUMilli: 1000, MemoryMB: 4096,
				DurationMS: cfg.TaskDurationMS, MaxWorkers: workers},
			"reduce": {Instances: n, CPUMilli: 1000, MemoryMB: 4096,
				DurationMS: cfg.TaskDurationMS, MaxWorkers: workers},
		},
		Pipes: []job.Pipe{{
			Source:      job.AccessPoint{AccessPoint: "map:out"},
			Destination: job.AccessPoint{AccessPoint: "reduce:in"},
		}},
	}
	h, err := c.SubmitJob(desc, core.JobOptions{Config: job.Config{
		Backup: job.BackupConfig{Enabled: true},
	}})
	if err != nil {
		return 0, err
	}
	limit := sim.Time(float64(cfg.IdealSec())*20+600) * sim.Second
	for !h.Done() && c.Now() < limit {
		c.Run(sim.Second)
	}
	if !h.Done() {
		return 0, fmt.Errorf("experiments: fuxi sort run incomplete after %v", limit)
	}
	return h.ElapsedSeconds() / cfg.IdealSec(), nil
}

// MeasureBaseline runs the same shape through the YARN-style baseline: map
// then reduce as two sequential applications, each paying the per-instance
// container-reallocation and process-start cost.
func MeasureBaseline(cfg OverheadConfig) (float64, error) {
	racks := (cfg.Nodes + 9) / 10
	perRack := (cfg.Nodes + racks - 1) / racks
	top, err := topology.Build(topology.Spec{
		Racks: racks, MachinesPerRack: perRack,
		MachineCapacity: topology.PaperTestbedMachine(),
	})
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, phase := range []string{"map", "reduce"} {
		res, err := baseline.RunWorkload(top, baseline.AMConfig{
			App:           "sort-" + phase,
			Size:          resource.New(1000, 4096),
			Instances:     cfg.instances(),
			Duration:      sim.Time(cfg.TaskDurationMS) * sim.Millisecond,
			MaxContainers: cfg.Nodes * cfg.WorkersPerNode,
			Heartbeat:     sim.Second,
			StartDelay:    sim.Time(cfg.WorkerStartDelayMS) * sim.Millisecond,
		}, cfg.Seed+int64(len(phase)))
		if err != nil {
			return 0, err
		}
		total += res.MakespanSec
	}
	return total / cfg.IdealSec(), nil
}
