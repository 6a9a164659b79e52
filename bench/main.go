// Command bench is the repository's benchmark: four Fuxi workloads driven
// through scale.Run and the layers' public APIs from outside, reporting the
// end-to-end and per-layer metrics BENCHMARK.json names. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a workload run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outDir is where a traced run leaves trace.json and the CPU profile it
// attributed, relative to the checkout root the benchmark runs from.
const outDir = "bench/out"

type options struct {
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
	outDir  string // outDir, except in tests
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload in this process: churn, failover, replay or chaos (default: all four, one child process each)")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 0, "seconds of timed windows per run (default: run_seconds of "+specFile+")")
		trace   = flag.String("trace", "0", "1 prints the per-layer metrics from a traced run, 0 the end-to-end metrics from an untraced one")
		smoke   = flag.Bool("smoke", false, "CI-sized clusters (seconds, not minutes; the numbers mean nothing)")
		aa      = flag.Int("aa", 0, "run two sets of N full runs and compare them against the bounds")
	)
	flag.Parse()
	spec, err := loadSpec(specFile)
	if err != nil {
		fatal(err)
	}
	traced, err := strconv.ParseBool(*trace)
	if err != nil {
		fatal(fmt.Errorf("-trace %q: want 0 or 1", *trace))
	}
	opt := options{seed: *seed, seconds: *seconds, trace: traced, smoke: *smoke, outDir: outDir}
	if opt.seconds <= 0 {
		opt.seconds = float64(spec.RunSeconds)
	}
	switch {
	case *name != "":
		w, err := workloadByName(*name)
		if err != nil {
			fatal(err)
		}
		ok, err := runWorkload(spec, w, opt)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *aa > 0:
		if !runAA(spec, opt, *aa) {
			os.Exit(1)
		}
	default:
		if !runAll(opt) {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// pin fixes the runtime settings a host could otherwise change through
// the environment: two threads of Go code (the bench host's core count),
// the default collector pacing, no memory limit.
func pin() {
	runtime.GOMAXPROCS(2)
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)
}

// measureWorkload runs one workload in this process and returns its
// metrics of the selected kind with their definitions.
func measureWorkload(spec *benchSpec, w workload, opt options) (*outcome, []metricSpec, error) {
	var tr *tracer
	if opt.trace {
		tr = &tracer{workload: w.name}
	}
	proc := tr.begin("process", 0)
	wl := tr.begin("workload:"+w.name, 0)
	cfg := w.config(opt.seed, opt.smoke)
	seconds, floor := opt.seconds, minReps
	if opt.smoke {
		seconds, floor = 0, 2
	}
	steal0, total0 := cpuTimes()
	startup := time.Since(procStart).Seconds()

	// One untimed repetition first: it faults in the binary and grows the
	// heap to working size, and it makes set-up time seconds long on every
	// workload, where a cluster build alone is tens of milliseconds and
	// moves by a quarter between two runs on this host.
	warm, err := runRep(w, cfg, tr, 0, false)
	if err != nil {
		return nil, nil, err
	}
	var o *outcome
	defs := spec.EndToEnd
	if !opt.trace {
		reps, err := runReps(w, cfg, nil, seconds, floor, false)
		if err != nil {
			return nil, nil, err
		}
		o = endToEnd(w, warm, reps, startup, check(w, append([]rep{warm}, reps...)))
	} else {
		// Half the timed budget untraced, then two repetitions under the
		// CPU profiler: the first gives the exact counts and the reference
		// throughput the profiled one is compared with.
		plain, err := runReps(w, cfg, tr, seconds/2, 2, false)
		if err != nil {
			return nil, nil, err
		}
		profiled, err := runReps(w, cfg, tr, 0, 2, true)
		if err != nil {
			return nil, nil, err
		}
		all := append(append([]rep{warm}, plain...), profiled...)
		o = endToEnd(w, warm, plain, startup, check(w, all))
		best, bestProf := fastest(plain), fastest(profiled)
		m := counts(w, best.res)
		shares, err := cpuShares(opt.outDir, w.name, bestProf.profile)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range shares {
			m[k] = v
		}
		pm, err := runProbes(opt.seed, tr)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range pm {
			m[k] = v
		}
		m["harness.rep_spread"] = o.spread
		m["harness.build_s"] = best.call - best.window
		m["harness.gc_cycles"] = float64(best.gcCycles)
		m["harness.trace_overhead_share"] = 1 - best.window/bestProf.window
		o.metrics = m
		defs = spec.PerLayer
	}
	steal1, total1 := cpuTimes()
	if total1 > total0 {
		o.steal = (steal1 - steal0) / (total1 - total0)
	}
	tr.end(wl)
	tr.end(proc)
	if opt.trace {
		o.metrics["harness.steal_share"] = o.steal
		if err := writeTrace(opt.outDir, tr.spans); err != nil {
			return nil, nil, err
		}
	}
	return o, defs, nil
}

// runWorkload measures one workload, prints every metric of the selected
// kind by name and unit, and ends with the result line.
func runWorkload(spec *benchSpec, w workload, opt options) (bool, error) {
	pin()
	o, defs, err := measureWorkload(spec, w, opt)
	if err != nil {
		return false, err
	}
	line := resultLine{
		Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	tag := ""
	if o.noisy() {
		tag = "  [noisy: a failed comparison against this run is not evidence of a regression]"
	}
	fmt.Printf("# %s seed=%d reps=%d nproc=%d GOMAXPROCS=%d %s rep_spread=%.3f steal_share=%.4f%s\n",
		w.name, opt.seed, o.reps, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.spread, o.steal, tag)
	for _, d := range defs {
		v := o.metrics[d.Name] // a metric the workload does not define reads 0
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Println(formatMetric(d, v))
	}
	for _, p := range o.problems {
		fmt.Println("# INCORRECT:", p)
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Println(string(raw))
	return line.Correct, nil
}

func formatMetric(d metricSpec, v float64) string {
	s := fmt.Sprintf("%-34s %16.6f %-7s %s is better", d.Name, v, d.Unit, d.Better)
	if d.Bound > 0 {
		s += fmt.Sprintf(", bound %.1f%%", 100*d.Bound)
	}
	return s
}

// runChild runs one workload in a child process of this executable, so
// every workload starts from a fresh heap and reports its own peak RSS.
// The child's report is echoed; its result line is returned.
func runChild(w workload, opt options, trace bool) (*resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", w.name, "-seed", strconv.FormatInt(opt.seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
		"-trace", strconv.FormatBool(trace),
	}
	if opt.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	var line resultLine
	if jerr := json.Unmarshal([]byte(last), &line); jerr != nil {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		return nil, fmt.Errorf("%s: no result line: %w", w.name, jerr)
	}
	return &line, nil // a non-zero exit with a result line is an incorrect run
}

// runAll is the one command that prints every metric: each workload in
// its own child process, untraced, and traced as well under -trace 1.
func runAll(opt options) bool {
	ok := true
	var spans []span
	for _, w := range workloads {
		kinds := []bool{false}
		if opt.trace {
			kinds = append(kinds, true)
		}
		for _, traced := range kinds {
			line, err := runChild(w, opt, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				ok = false
				continue
			}
			ok = ok && line.Correct
			if traced {
				s, err := readTrace(opt.outDir)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					ok = false
				}
				// Span IDs are per process: shift them so the merged file
				// keeps every parent link.
				base := len(spans)
				for _, sp := range s {
					sp.ID += base
					if sp.Parent != 0 {
						sp.Parent += base
					}
					spans = append(spans, sp)
				}
			}
		}
	}
	if opt.trace {
		if err := writeTrace(opt.outDir, spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			ok = false
		}
	}
	if ok {
		fmt.Println("# all workloads correct")
	} else {
		fmt.Println("# FAILED: see INCORRECT lines above")
	}
	return ok
}

// runAA runs the whole benchmark 2×n times on the same code, seeds
// seed..seed+n-1 in each set, and reports whether the two sets agree
// within the bounds — the check the driver makes before it trusts a
// comparison between two commits.
func runAA(spec *benchSpec, opt options, n int) bool {
	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	ok := true
	for s := range sets {
		sets[s] = map[key][]float64{}
		for i := 0; i < n; i++ {
			o := opt
			o.seed = opt.seed + int64(i)
			for _, w := range workloads {
				line, err := runChild(w, o, false)
				if err != nil {
					fatal(err)
				}
				ok = ok && line.Correct
				for name, v := range line.Metrics {
					k := key{w.name, name}
					sets[s][k] = append(sets[s][k], v.Value)
				}
			}
		}
	}
	var rows []aaRow
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			k := key{w.name, m.Name}
			rows = append(rows, compareSets(w.name, m, sets[0][k], sets[1][k]))
		}
	}
	fmt.Printf("\n# A/A: two sets of %d runs, seeds %d..%d\n", n, opt.seed, opt.seed+int64(n)-1)
	failed := printAA(os.Stdout, rows)
	if failed > 0 {
		fmt.Printf("# %d of %d comparisons FAILED\n", failed, len(rows))
	}
	return ok && failed == 0
}
