package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// specFile is BENCHMARK.json at the root of the checkout: the one place
// metric names, units, directions and bounds are written down. The program
// computes values by name; everything else about a metric is read from here.
const specFile = "BENCHMARK.json"

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate checks the limits the benchmark contract puts on the file.
func (s *benchSpec) validate() error {
	if n := len(s.Workloads); n != len(workloads) {
		return fmt.Errorf("%d workloads, the program runs %d", n, len(workloads))
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("name %q is not [A-Za-z0-9_.-]+ of at most 64", n)
		}
		if seen[n] {
			return fmt.Errorf("name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	for i, w := range s.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if w.Name != workloads[i].name {
			return fmt.Errorf("workload %d is %q, the program's is %q", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %q: why must be 1 to 200 characters", w.Name)
		}
	}
	setup := false
	for _, m := range s.EndToEnd {
		if err := name(m.Name); err != nil {
			return err
		}
		if err := m.validate(); err != nil {
			return err
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		return fmt.Errorf("end_to_end needs setup_s with unit s, lower better")
	}
	for _, m := range s.PerLayer {
		if err := name(m.Name); err != nil {
			return err
		}
		if err := m.validate(); err != nil {
			return err
		}
		if m.Bound != 0 {
			return fmt.Errorf("per-layer metric %q carries a bound", m.Name)
		}
	}
	return nil
}

func (m metricSpec) validate() error {
	if !unitRE.MatchString(m.Unit) {
		return fmt.Errorf("metric %q: unit %q", m.Name, m.Unit)
	}
	if m.Better != "lower" && m.Better != "higher" {
		return fmt.Errorf("metric %q: better is %q, want lower or higher", m.Name, m.Better)
	}
	return nil
}

// worse returns by what share of base the value is worse than base in the
// metric's direction (negative when it is better).
func (m metricSpec) worse(base, value float64) float64 {
	if base == 0 {
		return 0
	}
	d := (value - base) / base
	if m.Better == "higher" {
		d = -d
	}
	return d
}
