// Command scalesim runs one lane of the paper-scale scheduling stress
// harness (internal/scale) and writes its measurements — decision
// throughput, demand-to-grant latency in virtual time, allocation and
// message pressure, plus the lane's own section — as JSON. The lanes, their
// pass/fail contracts and their budget gates are the scale.Lanes table; the
// README lists what each exercises.
//
// A run exits non-zero when it breaks its lane's contract or, with
// -check-budgets, one of the lane's gates. -merge folds the run into an
// existing -out file under the lane's name instead of overwriting it.
//
// Usage:
//
//	go run ./cmd/scalesim                               # classic lane, 5,000 machines
//	go run ./cmd/scalesim -lane churn -smoke -check-budgets   # CI regression gate
//	go run ./cmd/scalesim -lane gateway -merge -out BENCH_scale.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/scale"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		laneName = flag.String("lane", "classic", "lane to run: "+laneNames())
		smoke    = flag.Bool("smoke", false, "run the lane's CI-sized configuration (100 machines)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		out      = flag.String("out", "BENCH_scale.json", "output JSON path (- for stdout only)")
		merge    = flag.Bool("merge", false, "fold this run into an existing -out file under the lane's name instead of overwriting it")
		gate     = flag.Bool("check-budgets", false, "exit non-zero when the run breaks one of its lane's budget gates (CI regression gate)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write an end-of-run heap profile to this file (go tool pprof -sample_index=alloc_space for hot allocators)")
	)
	flag.Parse()

	lane := scale.LaneByName(*laneName)
	switch {
	case lane == nil:
		fmt.Fprintf(os.Stderr, "scalesim: unknown -lane %q (want %s)\n", *laneName, laneNames())
		return 2
	case *smoke && lane.Smoke == nil:
		fmt.Fprintf(os.Stderr, "scalesim: -lane %s has no -smoke size\n", lane.Name)
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scalesim: -cpuprofile:", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "scalesim: -cpuprofile:", err)
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "scalesim: -memprofile:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "scalesim: -memprofile:", err)
			}
			f.Close()
		}()
	}

	// A run is the named lane at one of its two sizes; only the seed varies.
	cfg := lane.Full()
	if *smoke {
		cfg = lane.Smoke()
	}
	cfg.Seed = *seed
	res, err := scale.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalesim:", err)
		return 1
	}
	printResult(lane.Name, res)
	broken := false
	if lane.Broken(res) {
		broken = true
		fmt.Fprintf(os.Stderr, "scalesim: %s: the run broke the lane's contract\n", lane.Name)
	}
	if *gate {
		if bad := lane.Check(res, *smoke); len(bad) > 0 {
			broken = true
			fmt.Fprintf(os.Stderr, "scalesim: %s: BUDGET EXCEEDED: %v\n", lane.Name, bad)
		}
	}

	if *out != "-" {
		if err := writeOut(*out, res, lane.Name, *merge); err != nil {
			fmt.Fprintln(os.Stderr, "scalesim:", err)
			return 1
		}
		fmt.Println("wrote", *out)
	}
	if broken {
		// Contract and budget breaches are correctness/perf failures, not
		// measurements: make CI smoke runs fail loudly.
		return 1
	}
	return 0
}

func laneNames() string {
	names := make([]string, 0, len(scale.Lanes))
	for _, l := range scale.Lanes {
		names = append(names, l.Name)
	}
	return strings.Join(names, ", ")
}

// writeOut writes the payload, either overwriting the file or — with
// doMerge — folding it into an existing JSON document under the lane's name,
// so e.g. a gateway run extends BENCH_scale.json without discarding the
// other sections. Merging also rewrites the `budgets` section from the lane
// table.
func writeOut(path string, payload any, lane string, doMerge bool) error {
	var doc any = payload
	if doMerge {
		sections := map[string]json.RawMessage{}
		if data, err := os.ReadFile(path); err == nil {
			if err := json.Unmarshal(data, &sections); err != nil {
				return fmt.Errorf("-merge: %s is not a JSON object: %w", path, err)
			}
		}
		raw, err := json.Marshal(payload)
		if err != nil {
			return err
		}
		sections[lane] = raw
		if sections["budgets"], err = json.Marshal(scale.Budgets()); err != nil {
			return err
		}
		doc = sections
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printResult(label string, r *scale.Result) {
	trunc := ""
	if r.Truncated {
		trunc = " [TRUNCATED by the horizon: latency covers the completed prefix only]"
	}
	fmt.Printf("%s: %d machines, %d units, %d decisions in %.2fs wall (sim %.1fs)%s\n",
		label, r.Machines, r.Units, r.Decisions, r.WallSeconds, r.SimSeconds, trunc)
	fmt.Printf("  throughput %.0f decisions/s, latency p50 %.2fms p99 %.2fms max %.2fms (sim-time)\n",
		r.DecisionsPerSec, r.LatencyP50MS, r.LatencyP99MS, r.LatencyMaxMS)
	wantApps := r.Config.Apps
	if g := r.Gateway; g != nil {
		wantApps = int(g.Registered)
	}
	fmt.Printf("  %.1f allocs/decision, %d events, %d msgs (%d batches), %d/%d apps completed\n",
		r.AllocsPerDecision, r.EventsFired, r.MessagesSent, r.MessageBatches,
		r.CompletedApps, wantApps)
	if r.DecisionStreamHash != "" {
		fmt.Printf("  decision stream hash %s\n", r.DecisionStreamHash)
	}
	if r.MasterFailovers > 0 {
		fmt.Printf("  %d master failovers: recovery p50 %.0fms p99 %.0fms max %.0fms (sim-time)\n",
			r.MasterFailovers, r.RecoveryP50MS, r.RecoveryP99MS, r.RecoveryMaxMS)
		fmt.Printf("  scheduling pause p50 %.0fms p99 %.0fms max %.0fms; %d grants lost, %d reissued, %d invariant checks\n",
			r.SchedPauseP50MS, r.SchedPauseP99MS, r.SchedPauseMaxMS,
			r.GrantsLost, r.GrantsReissued, r.InvariantChecks)
	}
	if g := r.Gateway; g != nil {
		fmt.Printf("  gateway: %d submissions from %d tenants (population %d), %d admitted, %d registered, %d completed\n",
			g.Submitted, g.DistinctTenants, r.Config.GatewayUsers, g.Admitted, g.Registered, g.Completed)
		fmt.Printf("  shed %.1f%% (%d rate-limit, %d tenant-queue, %d backlog); admission p50 %.1fms p99 %.1fms max %.0fms (sim-time)\n",
			100*g.ShedRate, g.ShedRateLimit, g.ShedTenantQueue, g.ShedBacklog,
			g.AdmissionP50MS, g.AdmissionP99MS, g.AdmissionMaxMS)
		fmt.Printf("  fairness (Jain): service %.3f over %d tenants, batch %.3f over %d tenants\n",
			g.Service.JainFairness, g.Service.Tenants, g.Batch.JainFairness, g.Batch.Tenants)
		fmt.Printf("  %.0f allocs/admission, %.1f msgs/admission, %d admit retries, %d failover replays, decision hash %s\n",
			r.AllocsPerAdmission, r.MessagesPerAdmission, g.AdmitRetries, g.FailoverReplays, g.DecisionHash)
	}
	if d := r.Dataplane; d != nil {
		fmt.Printf("  dataplane: %d/%d jobs completed (%d graysort, %d dag, %d service); makespan p50 %.0fms p99 %.0fms max %.0fms (sim-time)\n",
			d.CompletedJobs, d.GraySortJobs+d.DAGJobs+d.ServiceJobs,
			d.GraySortJobs, d.DAGJobs, d.ServiceJobs,
			d.MakespanP50MS, d.MakespanP99MS, d.MakespanMaxMS)
		fmt.Printf("  locality: %.1f%% hit (%d machine, %d rack, %d remote); %.0f MB shuffled, %.0f MB read locally\n",
			d.LocalityHitRatePct, d.LocalityMachineGrants, d.LocalityRackGrants, d.LocalityRemoteGrants,
			d.ShuffledMB, d.LocalMB)
		fmt.Printf("  verification: %d graysort partitions checked (%d failures), %d service ops (%d failures)\n",
			d.VerifiedPartitions, d.VerifyFailures, d.ServiceOpsRun, d.ServiceOpFailures)
		fmt.Printf("  service class: d2g p50 %.2fms p99 %.2fms, %.1f%% within %.0fms SLO; batch: d2g p99 %.2fms, %.1f%% within %.0fms\n",
			d.Service.DemandToGrantP50MS, d.Service.DemandToGrantP99MS, d.Service.SLOAttainedPct, d.Service.SLOMS,
			d.Batch.DemandToGrantP99MS, d.Batch.SLOAttainedPct, d.Batch.SLOMS)
	}
	if rp := r.Replay; rp != nil {
		fmt.Printf("  replay: %d sessions, %d submissions over %d×%.0fs days (peak %d / trough %d), mean burst %.2f\n",
			rp.Sessions, rp.Submissions, rp.Days, rp.DayLengthSec,
			rp.SubmissionsPeak, rp.SubmissionsTrough, rp.MeanBurstLen)
		fmt.Printf("  storms: %d (%d injections, %d skipped): %d killed, %d broken, %d slowed; %d launch failures, %d stretched holds\n",
			rp.Storms, rp.Injections, rp.InjectionsSkipped,
			rp.MachinesKilled, rp.MachinesBroken, rp.MachinesSlowed,
			rp.LaunchFailures, rp.SlowHolds)
		fmt.Printf("  service: admission p99 %.1fms, d2g p99 %.2fms, %.1f%% within %.0fms SLO, preemption %.2f%%, shed %.2f%%\n",
			rp.Service.AdmissionP99MS, rp.Service.DemandToGrantP99MS,
			rp.Service.SLOAttainedPct, rp.Service.SLOMS, rp.Service.PreemptionPct, rp.Service.ShedPct)
		fmt.Printf("  batch:   admission p99 %.1fms, d2g p99 %.2fms, %.1f%% within %.0fms SLO, preemption %.2f%%, shed %.2f%%\n",
			rp.Batch.AdmissionP99MS, rp.Batch.DemandToGrantP99MS,
			rp.Batch.SLOAttainedPct, rp.Batch.SLOMS, rp.Batch.PreemptionPct, rp.Batch.ShedPct)
		fmt.Printf("  utilization (cpu): peak %.1f%%, trough %.1f%%, storm %.1f%%; overall shed %.2f%%, decision hash %s\n",
			rp.Peak.CPUUtilPct, rp.Trough.CPUUtilPct, rp.Storm.CPUUtilPct,
			rp.ShedPct, rp.DecisionHash)
	}
	if cz := r.Chaos; cz != nil {
		fmt.Printf("  chaos: %d partition storms (%d machines), %d heals, %d flap windows, %d delay spikes, %d lock partitions (epoch %d)\n",
			cz.Partitions, cz.MachinesPartitioned, cz.Heals, cz.LinkFlaps, cz.DelaySpikes,
			cz.LockPartitions, cz.MasterEpoch)
		fmt.Printf("  convergence after heal: p50 %.0fms p99 %.0fms max %.0fms (sim-time), %d unconverged\n",
			cz.ConvergenceP50MS, cz.ConvergenceP99MS, cz.ConvergenceMaxMS, cz.Unconverged)
		fmt.Printf("  %d grants lost in storms, %d reissued on heal; link loss: %d links dropped %d msgs (worst %s: %d)\n",
			cz.LostGrants, cz.ReissuedGrants, cz.LinksWithLoss, cz.LinkMsgsDropped,
			cz.WorstLink, cz.WorstLinkDropped)
	}
	if o := r.Obs; o != nil {
		fmt.Printf("  obs: %d series × %d-row ring (%d B/row), %d samples recorded (%d retained), %.3f allocs/sample\n",
			o.Series, o.RingCapacity, o.BytesPerSample, o.SamplesTotal, o.SamplesRetained, o.AllocsPerSample)
		fmt.Printf("  queries: %d issued, %d answered, %d group-by rows, checksum %016x; server p50 %.0fµs p99 %.0fµs (wall)\n",
			o.Queries, o.Responses, o.QueryResults, o.QueryChecksum, o.QueryP50US, o.QueryP99US)
		fmt.Printf("  links: %d watched, %d flap windows, %d msgs dropped and attributed\n",
			o.WatchedLinks, o.FlapWindows, o.LinkDropsObserved)
		fmt.Printf("  checkpoint: %d writes, %d delta B + %d anchor B (%d compactions), %.0f B/job vs %.0f full-snapshot — %.1fx saving\n",
			o.CheckpointWrites, o.CheckpointDeltaBytes, o.CheckpointAnchorBytes,
			o.CheckpointCompactions, o.CheckpointBytesPerJob, o.FullSnapshotBytesPerJob, o.CheckpointSavingsX)
	}
	if len(r.Invariants) > 0 {
		fmt.Printf("  INVARIANT VIOLATIONS: %v\n", r.Invariants)
	}
}
