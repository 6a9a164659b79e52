package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/scale"
)

// minReps is the fewest timed repetitions a run makes, however long each
// takes: host-time metrics come from the fastest, and three is the fewest
// that still leaves a calm window likely on a shared host.
const minReps = 3

// rep is one repetition: a fresh cluster run to completion on the seed.
type rep struct {
	res      *scale.Result
	window   float64 // seconds inside scale.Run's timed window
	call     float64 // seconds the whole scale.Run call took
	total    float64 // seconds the repetition took, collection included
	gcCycles uint32
	profile  []byte // CPU profile of the scale.Run call (profiled reps only)
}

// runRep forces the heap back to its floor, then builds and runs one
// cluster. Everything but the window scale.Run times itself is set-up:
// the collection, the cluster build, churn warm-up and the settle phase.
func runRep(w workload, cfg scale.Config, tr *tracer, n int, profiled bool) (rep, error) {
	id := tr.begin("repetition", n)
	defer tr.end(id)
	start := time.Now()
	runtime.GC()
	debug.FreeOSMemory()

	var prof bytes.Buffer
	if profiled {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return rep{}, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	call := tr.begin("scale.Run", n)
	callStart := time.Now()
	res, err := scale.Run(cfg)
	callTime := time.Since(callStart).Seconds()
	tr.end(call)
	runtime.ReadMemStats(&after)
	if profiled {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return rep{}, fmt.Errorf("%s: %w", w.name, err)
	}
	return rep{
		res:      res,
		window:   res.WallSeconds,
		call:     callTime,
		total:    time.Since(start).Seconds(),
		gcCycles: after.NumGC - before.NumGC,
		profile:  prof.Bytes(),
	}, nil
}

// runReps repeats the workload until the timed windows add up to seconds,
// and at least min times.
func runReps(w workload, cfg scale.Config, tr *tracer, seconds float64, min int, profiled bool) ([]rep, error) {
	var reps []rep
	timed := 0.0
	for len(reps) < min || timed < seconds {
		r, err := runRep(w, cfg, tr, len(reps)+1, profiled)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		timed += r.window
	}
	return reps, nil
}

// fastest returns the repetition with the shortest timed window. Noise on
// a shared host only ever adds time, so the fastest is the best estimate
// of what the code costs.
func fastest(reps []rep) rep {
	best := reps[0]
	for _, r := range reps[1:] {
		if r.window < best.window {
			best = r
		}
	}
	return best
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// check gates every repetition and compares their exact statistics; it
// returns the reasons the run is incorrect (nil when it is correct).
func check(w workload, reps []rep) []string {
	var bad []string
	first := exactOf(w, reps[0].res)
	for i, r := range reps {
		for _, g := range gate(r.res) {
			bad = append(bad, fmt.Sprintf("repetition %d: %s", i+1, g))
		}
		if e := exactOf(w, r.res); e != first {
			bad = append(bad, fmt.Sprintf("repetition %d disagrees with repetition 1 on exact statistics:\n  1: %+v\n  %d: %+v", i+1, first, i+1, e))
		}
	}
	return bad
}

// outcome is one workload run: the metrics by name plus the result line's
// other fields and the noise diagnosis.
type outcome struct {
	metrics   map[string]float64
	attempted uint64
	failed    uint64
	problems  []string
	reps      int
	spread    float64 // slowest ÷ fastest window − 1
	steal     float64 // share of host CPU time stolen during the run
}

func (o *outcome) noisy() bool { return o.steal > 0.05 || o.spread > 0.25 }

// endToEnd computes the end-to-end metrics from the untimed warm-up
// repetition and the timed, untraced ones. Set-up time is everything the
// process spends outside a timed window, with the timed repetitions'
// share taken as their median so that it does not grow with their number:
// start-up, the whole warm-up repetition, and one repetition's cluster
// build, warm-up phase, settle phase and collection. problems are the
// reasons the run is incorrect; any scores served_share 0.
func endToEnd(w workload, warm rep, reps []rep, startup float64, problems []string) *outcome {
	best := fastest(reps)
	res := best.res
	var overheads, allocs []float64
	slowest := 0.0
	for _, r := range reps {
		overheads = append(overheads, r.total-r.window)
		allocs = append(allocs, r.res.AllocsPerDecision)
		if r.window > slowest {
			slowest = r.window
		}
	}
	attempted, served, refused := w.served(res)
	o := &outcome{
		attempted: attempted, failed: attempted - served - refused,
		problems: problems, reps: len(reps),
		spread: slowest/best.window - 1,
	}
	share := 0.0
	if attempted > 0 && len(o.problems) == 0 {
		share = float64(served) / float64(attempted)
	}
	dec := math.Max(float64(res.Decisions), 1) // zero decisions fails the gate; keep the values finite
	o.metrics = map[string]float64{
		"decisions_per_s":     dec / best.window,
		"setup_s":             startup + warm.total + median(overheads),
		"peak_rss_mb":         peakRSSMB(),
		"allocs_per_decision": median(allocs),
		"msgs_per_decision":   float64(res.MessagesSent) / dec,
		"d2g_mean":            res.LatencyMeanMS,
		"served_share":        share,
	}
	return o
}

// counts are the per-layer metrics read straight off a scale.Result.
func counts(w workload, res *scale.Result) map[string]float64 {
	dec := math.Max(float64(res.Decisions), 1)
	m := map[string]float64{
		"sim.events_per_decision":   float64(res.EventsFired) / dec,
		"appmaster.d2g_p50":         res.LatencyP50MS,
		"appmaster.d2g_p99":         res.LatencyP99MS,
		"master.revoke_share":       float64(res.Revokes) / dec,
		"master.ckpt_writes":        float64(res.CheckpointWrites),
		"master.ckpt_bytes_per_job": res.CheckpointBytesPerJob,
		"master.grants_lost":        float64(res.GrantsLost),
		"master.grants_reissued":    float64(res.GrantsReissued),
		"invariant.checks":          float64(res.InvariantChecks),
	}
	m["master.recover_p50"], m["master.recover_max"] = w.recover(res)
	if res.MessageBatches > 0 {
		m["transport.msgs_per_batch"] = float64(res.MessagesSent) / float64(res.MessageBatches)
	}
	if c := res.Chaos; c != nil {
		m["transport.link_msgs_dropped"] = float64(c.LinkMsgsDropped)
		m["master.grants_lost"] = float64(c.LostGrants)
		m["master.grants_reissued"] = float64(c.ReissuedGrants)
	}
	if g := res.Gateway; g != nil {
		m["gateway.shed_share"] = g.ShedRate
		m["gateway.admit_retries"] = float64(g.AdmitRetries)
		m["gateway.allocs_per_admission"] = res.AllocsPerAdmission
		m["gateway.msgs_per_admission"] = res.MessagesPerAdmission
	}
	if r := res.Replay; r != nil {
		m["gateway.admit_p99"] = r.Service.AdmissionP99MS
	}
	return m
}

// cpuShares attributes the profiled repetition's CPU samples to layers.
func cpuShares(outDir, name string, profile []byte) (map[string]float64, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, name+".cpu.pprof")
	if err := os.WriteFile(path, profile, 0o644); err != nil {
		return nil, err
	}
	shares, err := attributeProfile(path)
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64, len(shares))
	for layer, s := range shares {
		m[layer+".cpu_share"] = s
	}
	return m, nil
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTimes reads the host's aggregate CPU line: jiffies stolen by the
// hypervisor and jiffies in total.
func cpuTimes() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
