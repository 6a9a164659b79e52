// Package job implements the Fuxi Job framework of paper §4: a DAG batch
// dataflow model described by a JSON file (Figure 6), executed by a
// two-level hierarchical scheduler — one JobMaster doing task-topology
// scheduling and per-task TaskMasters doing fine-grained instance scheduling
// (Figure 8) — with user-transparent JobMaster failover from lightweight
// instance-status snapshots, a multi-level machine blacklist, and backup
// instances for long-tail stragglers.
package job

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// AccessPoint is one end of a pipe: either a DFS file pattern
// ("pangu://...") or a task port ("T1:input").
type AccessPoint struct {
	FilePattern string `json:"FilePattern,omitempty"`
	AccessPoint string `json:"AccessPoint,omitempty"`
}

// Task returns the task name of a task-port access point ("" for files).
func (a AccessPoint) Task() string {
	if a.AccessPoint == "" {
		return ""
	}
	if i := strings.IndexByte(a.AccessPoint, ':'); i >= 0 {
		return a.AccessPoint[:i]
	}
	return a.AccessPoint
}

// Pipe is one data shuffle edge of the DAG.
type Pipe struct {
	Source      AccessPoint `json:"Source"`
	Destination AccessPoint `json:"Destination"`
}

// TaskSpec configures one task of the job.
type TaskSpec struct {
	// Instances is the parallelism (number of data partitions).
	Instances int `json:"Instances"`
	// CPUMilli/MemoryMB size one instance's container.
	CPUMilli int64 `json:"CPU"`
	MemoryMB int64 `json:"Memory"`
	// DurationMS is the nominal per-instance execution time the simulated
	// worker binary takes (stands in for the user's executable).
	DurationMS int64 `json:"DurationMS"`
	// NormalDurationMS is the user-declared normal running time that
	// distinguishes data skew from stragglers in the backup-instance
	// criteria (paper §4.3.2); 0 means 4x DurationMS.
	NormalDurationMS int64 `json:"NormalDurationMS,omitempty"`
	// DurationJitterPct draws each instance's execution time uniformly
	// from DurationMS ± this percentage, modelling natural per-partition
	// variance; 0 runs every instance for exactly DurationMS.
	DurationJitterPct int `json:"DurationJitterPct,omitempty"`
	// Priority orders this task's resource requests (smaller = higher).
	Priority int `json:"Priority,omitempty"`
	// MaxWorkers caps concurrent workers (containers); 0 means Instances.
	MaxWorkers int `json:"MaxWorkers,omitempty"`
}

// Description is the job's JSON description (paper Figure 6).
type Description struct {
	Name  string              `json:"Name"`
	Tasks map[string]TaskSpec `json:"Tasks"`
	Pipes []Pipe              `json:"Pipes"`
}

// Parse decodes and validates a JSON job description.
func Parse(data []byte) (*Description, error) {
	var d Description
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("job: bad description: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Validate checks structural sanity: tasks exist, pipes reference known
// tasks, and the graph is acyclic.
func (d *Description) Validate() error {
	if d.Name == "" {
		return fmt.Errorf("job: empty name")
	}
	if len(d.Tasks) == 0 {
		return fmt.Errorf("job %q: no tasks", d.Name)
	}
	for name, t := range d.Tasks {
		if t.Instances <= 0 {
			return fmt.Errorf("job %q task %q: non-positive instances %d", d.Name, name, t.Instances)
		}
		if t.CPUMilli <= 0 || t.MemoryMB <= 0 {
			return fmt.Errorf("job %q task %q: non-positive resources", d.Name, name)
		}
		if t.DurationMS <= 0 {
			return fmt.Errorf("job %q task %q: non-positive duration", d.Name, name)
		}
	}
	for i, p := range d.Pipes {
		if src := p.Source.Task(); src != "" {
			if _, ok := d.Tasks[src]; !ok {
				return fmt.Errorf("job %q pipe %d: unknown source task %q", d.Name, i, src)
			}
		}
		if dst := p.Destination.Task(); dst != "" {
			if _, ok := d.Tasks[dst]; !ok {
				return fmt.Errorf("job %q pipe %d: unknown destination task %q", d.Name, i, dst)
			}
		}
		if p.Source.Task() == "" && p.Destination.Task() == "" {
			return fmt.Errorf("job %q pipe %d: file-to-file pipe", d.Name, i)
		}
	}
	if _, err := d.TopologicalOrder(); err != nil {
		return err
	}
	return nil
}

// Upstream returns the distinct task names feeding task in.
func (d *Description) Upstream(task string) []string {
	set := map[string]bool{}
	for _, p := range d.Pipes {
		if p.Destination.Task() == task {
			if src := p.Source.Task(); src != "" {
				set[src] = true
			}
		}
	}
	return sortedKeys(set)
}

// Downstream returns the distinct task names fed by task.
func (d *Description) Downstream(task string) []string {
	set := map[string]bool{}
	for _, p := range d.Pipes {
		if p.Source.Task() == task {
			if dst := p.Destination.Task(); dst != "" {
				set[dst] = true
			}
		}
	}
	return sortedKeys(set)
}

// InputFiles returns the DFS file patterns feeding task.
func (d *Description) InputFiles(task string) []string {
	var out []string
	for _, p := range d.Pipes {
		if p.Destination.Task() == task && p.Source.FilePattern != "" {
			out = append(out, p.Source.FilePattern)
		}
	}
	sort.Strings(out)
	return out
}

// TopologicalOrder returns task names so that every task appears after all
// its upstream tasks; it fails on cycles ("the framework ... analyzes the
// shuffle pipes to figure out the task topological order", paper §4.4).
func (d *Description) TopologicalOrder() ([]string, error) {
	indeg := make(map[string]int, len(d.Tasks))
	for name := range d.Tasks {
		indeg[name] = len(d.Upstream(name))
	}
	var ready []string
	for name, n := range indeg {
		if n == 0 {
			ready = append(ready, name)
		}
	}
	sort.Strings(ready)
	var order []string
	for len(ready) > 0 {
		t := ready[0]
		ready = ready[1:]
		order = append(order, t)
		var unlocked []string
		for _, dn := range d.Downstream(t) {
			indeg[dn]--
			if indeg[dn] == 0 {
				unlocked = append(unlocked, dn)
			}
		}
		sort.Strings(unlocked)
		ready = append(ready, unlocked...)
	}
	if len(order) != len(d.Tasks) {
		return nil, fmt.Errorf("job %q: cycle in task graph", d.Name)
	}
	return order, nil
}

// TotalInstances sums instance counts over all tasks.
func (d *Description) TotalInstances() int {
	n := 0
	for _, t := range d.Tasks {
		n += t.Instances
	}
	return n
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
