package main

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/scale"
)

const specPath = "../" + specFile

func mustSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecLimits pins what the benchmark contract fixes about
// BENCHMARK.json beyond what loadSpec already enforces on every run.
func TestSpecLimits(t *testing.T) {
	spec := mustSpec(t)
	if len(spec.Workloads) != 4 {
		t.Errorf("%d workloads, want 4", len(spec.Workloads))
	}
	if got := strings.Join(spec.Command, " "); got != "bash bench/run.sh" {
		t.Errorf("command %q", got)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths %v", spec.Paths)
	}
	cpu := 0
	for _, m := range spec.PerLayer {
		if strings.HasSuffix(m.Name, ".cpu_share") {
			cpu++
		}
	}
	if cpu != len(cpuLayers) {
		t.Errorf("%d cpu_share metrics, the attributor has %d layers", cpu, len(cpuLayers))
	}
}

// TestReadmeDictionary: README.md repeats each end-to-end metric's unit,
// direction and bound for the reader; BENCHMARK.json is what counts, so a
// row that disagrees with it fails here.
func TestReadmeDictionary(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mustSpec(t).EndToEnd {
		row := fmt.Sprintf("| `%s` | %s | %s | %.2f |", m.Name, m.Unit, m.Better, m.Bound)
		if !strings.Contains(string(raw), row) {
			t.Errorf("README.md has no row %q", row)
		}
	}
}

func TestSpecValidateRejects(t *testing.T) {
	cases := map[string]func(*benchSpec){
		"bad name":         func(s *benchSpec) { s.EndToEnd[0].Name = "a b" },
		"duplicate name":   func(s *benchSpec) { s.PerLayer[0].Name = s.EndToEnd[0].Name },
		"bound too large":  func(s *benchSpec) { s.EndToEnd[0].Bound = 0.3 },
		"no bound":         func(s *benchSpec) { s.EndToEnd[0].Bound = 0 },
		"bounded layer":    func(s *benchSpec) { s.PerLayer[0].Bound = 0.1 },
		"bad direction":    func(s *benchSpec) { s.PerLayer[0].Better = "faster" },
		"bad unit":         func(s *benchSpec) { s.PerLayer[0].Unit = "m s" },
		"no setup_s":       func(s *benchSpec) { s.EndToEnd[1].Name = "setup" },
		"too many e2e":     func(s *benchSpec) { s.EndToEnd = append(s.EndToEnd, make([]metricSpec, 16)...) },
		"missing workload": func(s *benchSpec) { s.Workloads = s.Workloads[:3] },
		"renamed workload": func(s *benchSpec) { s.Workloads[0].Name = "steady" },
		"run_seconds":      func(s *benchSpec) { s.RunSeconds = 61 },
	}
	for name, breakIt := range cases {
		spec := mustSpec(t)
		if spec.EndToEnd[1].Name != "setup_s" {
			t.Fatal("test assumes setup_s is the second end-to-end metric")
		}
		breakIt(spec)
		if err := spec.validate(); err == nil {
			t.Errorf("%s: validate accepted it", name)
		}
	}
}

func TestFastestAndMedian(t *testing.T) {
	reps := []rep{{window: 3.2}, {window: 2.9}, {window: 4.0}}
	if got := fastest(reps).window; got != 2.9 {
		t.Errorf("fastest = %v, want 2.9", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
}

// TestQuartilesMatchPython compares against values computed with
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 2, 38, 23, 38, 23, 21}, [3]float64{10, 23, 38}},
		{[]float64{1, 2, 4, 8, 16}, [3]float64{1.5, 4, 12}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
	}
	for _, c := range cases {
		got := quartiles(c.in)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestBoundArithmetic(t *testing.T) {
	higher := metricSpec{Name: "decisions_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	lower := metricSpec{Name: "allocs_per_decision", Unit: "count", Better: "lower", Bound: 0.02}
	if got := higher.worse(100, 90); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("higher-better 100→90 worse by %v, want 0.10", got)
	}
	if got := higher.worse(100, 120); got >= 0 {
		t.Errorf("higher-better 100→120 counted as worse (%v)", got)
	}
	if got := lower.worse(2.0, 2.1); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("lower-better 2.0→2.1 worse by %v, want 0.05", got)
	}

	steady := []float64{100, 101, 99, 100, 102}
	if r := compareSets("churn", higher, steady, []float64{95, 96, 94, 95, 97}); !r.pass {
		t.Errorf("5%% slower within a 10%% bound failed: %+v", r)
	}
	if r := compareSets("churn", higher, steady, []float64{85, 86, 84, 85, 87}); r.pass {
		t.Errorf("15%% slower within a 10%% bound passed: %+v", r)
	}
	if r := compareSets("churn", higher, steady, []float64{115, 116, 114, 115, 117}); r.pass {
		t.Errorf("15%% faster on the same code within a 10%% bound passed: %+v", r)
	}
	wide := []float64{70, 100, 130, 100, 100}
	if r := compareSets("churn", higher, wide, wide); r.pass {
		t.Errorf("spread beyond the bound passed: %+v", r)
	}
	setup := metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}
	if r := compareSets("churn", setup, wide, wide); !r.pass {
		t.Errorf("setup_s is exempt from the spread rule but failed: %+v", r)
	}
}

func TestAttributeSample(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shares, total, err := attribute(f)
	if err != nil {
		t.Fatal(err)
	}
	if total.Milliseconds() != 200 {
		t.Errorf("total %v, want 200ms", total)
	}
	want := map[string]float64{
		"sim":       0.20, // malloc under Engine.getEvent, called from agent.New
		"protocol":  0.15, // inlined leaf in protocol under agent
		"appmaster": 0.10, // runtime map code under AM.addHeld
		"gc":        0.25, // background mark worker
		"other":     0.05, // runtime scheduler, no layer frame
		"master":    0.20, // CheckInvariants under the invariant checker; a sort under reconcileHeld
		"scale":     0.05, // metrics.Histogram is no layer: charged to its caller
	}
	sum := 0.0
	for _, l := range cpuLayers {
		sum += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-9 {
			t.Errorf("%s share %v, want %v", l, shares[l], want[l])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if _, _, err := attribute(strings.NewReader("Type: cpu\n")); err == nil {
		t.Error("attribute accepted output without samples")
	}
}

func TestGateAndExactness(t *testing.T) {
	w := workloads[0]
	good := &scale.Result{Decisions: 10, MessagesSent: 20}
	if bad := gate(good); bad != nil {
		t.Errorf("clean result gated: %v", bad)
	}
	for name, r := range map[string]*scale.Result{
		"invariant":   {Decisions: 10, Invariants: []string{"x"}},
		"truncated":   {Decisions: 10, Truncated: true},
		"unconverged": {Decisions: 10, Chaos: &scale.ChaosStats{Heals: 2, Unconverged: 1}},
		"idle":        {},
	} {
		if gate(r) == nil {
			t.Errorf("%s: gate passed it", name)
		}
	}
	same := []rep{{res: good, window: 1}, {res: good, window: 1.1}}
	if bad := check(w, same); bad != nil {
		t.Errorf("identical repetitions flagged: %v", bad)
	}
	drift := &scale.Result{Decisions: 10, MessagesSent: 21}
	if bad := check(w, []rep{{res: good, window: 1}, {res: drift, window: 1}}); len(bad) != 1 {
		t.Errorf("repetitions that disagree on messages: %v", bad)
	}
	reps := []rep{{res: good, window: 1}, {res: drift, window: 1}}
	o := endToEnd(w, rep{res: good}, reps, 0, check(w, reps))
	if o.metrics["served_share"] != 0 {
		t.Errorf("an incorrect run scored served_share %v, want 0", o.metrics["served_share"])
	}
}

// TestSmoke runs all four workloads at CI size through the same code the
// full-size benchmark uses, and checks that every metric BENCHMARK.json
// names comes out, finite, from a correct run. Only replay is also traced:
// it is the one workload with a gateway, a failover and storms, and the
// probes cost the same whichever workload they follow.
func TestSmoke(t *testing.T) {
	spec := mustSpec(t)
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && w.name != "replay" {
				continue
			}
			o, defs, err := measureWorkload(spec, w, options{seed: 1, smoke: true, trace: traced, outDir: out})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if len(o.problems) > 0 {
				t.Errorf("%s traced=%v incorrect: %v", w.name, traced, o.problems)
			}
			if o.attempted == 0 || o.failed > o.attempted {
				t.Errorf("%s: attempted %d failed %d", w.name, o.attempted, o.failed)
			}
			cpu := 0.0
			for _, d := range defs {
				v, ok := o.metrics[d.Name]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v", w.name, d.Name, v)
				}
				if !traced && (!ok || v <= 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, v)
				}
				if strings.HasSuffix(d.Name, ".cpu_share") {
					cpu += v
				}
			}
			if traced && math.Abs(cpu-1) > 0.01 {
				t.Errorf("%s: cpu shares sum to %v", w.name, cpu)
			}
			for name := range o.metrics {
				if !hasMetric(defs, name) {
					t.Errorf("%s: computed metric %s is not in %s", w.name, name, specFile)
				}
			}
		}
	}
	spans, err := readTrace(out)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range spans {
		names[s.Name] = true
		if s.EndUS < s.StartUS {
			t.Errorf("span %q ends before it starts", s.Name)
		}
	}
	for _, want := range []string{"process", "repetition", "scale.Run", "probe:sim", "transport"} {
		if !names[want] {
			t.Errorf("trace has no %q span", want)
		}
	}
}

func hasMetric(defs []metricSpec, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// TestWorkloadConfigsSeeded: the seed argument must reach the system, and
// every workload runs the serial scheduler.
func TestWorkloadConfigsSeeded(t *testing.T) {
	for _, w := range workloads {
		for _, smoke := range []bool{false, true} {
			c := w.config(7, smoke)
			if c.Seed != 7 {
				t.Errorf("%s smoke=%v: seed %d, want 7", w.name, smoke, c.Seed)
			}
			if c.Shards != 0 {
				t.Errorf("%s: sharded scheduler in the serial benchmark", w.name)
			}
		}
	}
}
