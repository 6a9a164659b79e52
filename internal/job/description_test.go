package job

import (
	"testing"
)

// figure6JSON mirrors the paper's Figure 6 job description: a diamond DAG
// T1 -> {T2, T3} -> T4 reading from and writing to Pangu.
const figure6JSON = `{
  "Name": "figure6",
  "Tasks": {
    "T1": {"Instances": 4, "CPU": 1000, "Memory": 2048, "DurationMS": 1000},
    "T2": {"Instances": 2, "CPU": 1000, "Memory": 2048, "DurationMS": 1000},
    "T3": {"Instances": 2, "CPU": 1000, "Memory": 2048, "DurationMS": 1000},
    "T4": {"Instances": 1, "CPU": 1000, "Memory": 2048, "DurationMS": 1000}
  },
  "Pipes": [
    {"Source": {"FilePattern": "pangu://input"}, "Destination": {"AccessPoint": "T1:input"}},
    {"Source": {"AccessPoint": "T1:toT2"}, "Destination": {"AccessPoint": "T2:fromT1"}},
    {"Source": {"AccessPoint": "T1:toT3"}, "Destination": {"AccessPoint": "T3:fromT1"}},
    {"Source": {"AccessPoint": "T2:toT4"}, "Destination": {"AccessPoint": "T4:fromT2"}},
    {"Source": {"AccessPoint": "T3:toT4"}, "Destination": {"AccessPoint": "T4:fromT3"}},
    {"Source": {"AccessPoint": "T4:output"}, "Destination": {"FilePattern": "pangu://output"}}
  ]
}`

func TestParseFigure6(t *testing.T) {
	d, err := Parse([]byte(figure6JSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Tasks) != 4 || len(d.Pipes) != 6 {
		t.Fatalf("tasks=%d pipes=%d", len(d.Tasks), len(d.Pipes))
	}
	if got := d.Upstream("T4"); len(got) != 2 || got[0] != "T2" || got[1] != "T3" {
		t.Errorf("Upstream(T4) = %v", got)
	}
	if got := d.Downstream("T1"); len(got) != 2 || got[0] != "T2" || got[1] != "T3" {
		t.Errorf("Downstream(T1) = %v", got)
	}
	if got := d.InputFiles("T1"); len(got) != 1 || got[0] != "pangu://input" {
		t.Errorf("InputFiles(T1) = %v", got)
	}
	if d.TotalInstances() != 9 {
		t.Errorf("total instances = %d", d.TotalInstances())
	}
}

func TestTopologicalOrder(t *testing.T) {
	d, err := Parse([]byte(figure6JSON))
	if err != nil {
		t.Fatal(err)
	}
	order, err := d.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	if !(pos["T1"] < pos["T2"] && pos["T1"] < pos["T3"] && pos["T2"] < pos["T4"] && pos["T3"] < pos["T4"]) {
		t.Errorf("order = %v", order)
	}
}

// TestTopologicalOrderRejectsCycle exercises cycle detection directly (not
// through Validate): callers like examples/dagpipeline consume
// TopologicalOrder's error themselves, and a cyclic description must never
// yield a bogus partial order.
func TestTopologicalOrderRejectsCycle(t *testing.T) {
	d := &Description{
		Name: "cyclic",
		Tasks: map[string]TaskSpec{
			"A": {Instances: 1, CPUMilli: 1, MemoryMB: 1, DurationMS: 1},
			"B": {Instances: 1, CPUMilli: 1, MemoryMB: 1, DurationMS: 1},
			"C": {Instances: 1, CPUMilli: 1, MemoryMB: 1, DurationMS: 1},
		},
		Pipes: []Pipe{
			{Source: AccessPoint{AccessPoint: "A:o"}, Destination: AccessPoint{AccessPoint: "B:i"}},
			{Source: AccessPoint{AccessPoint: "B:o"}, Destination: AccessPoint{AccessPoint: "C:i"}},
			{Source: AccessPoint{AccessPoint: "C:o"}, Destination: AccessPoint{AccessPoint: "A:i"}},
		},
	}
	order, err := d.TopologicalOrder()
	if err == nil {
		t.Fatalf("cycle accepted, order = %v", order)
	}
	if len(order) != 0 {
		t.Errorf("cyclic description returned partial order %v", order)
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	d := &Description{
		Name: "cyclic",
		Tasks: map[string]TaskSpec{
			"A": {Instances: 1, CPUMilli: 1, MemoryMB: 1, DurationMS: 1},
			"B": {Instances: 1, CPUMilli: 1, MemoryMB: 1, DurationMS: 1},
		},
		Pipes: []Pipe{
			{Source: AccessPoint{AccessPoint: "A:o"}, Destination: AccessPoint{AccessPoint: "B:i"}},
			{Source: AccessPoint{AccessPoint: "B:o"}, Destination: AccessPoint{AccessPoint: "A:i"}},
		},
	}
	if err := d.Validate(); err == nil {
		t.Error("cycle accepted")
	}
}

func TestValidateRejections(t *testing.T) {
	base := func() *Description {
		return &Description{
			Name: "j",
			Tasks: map[string]TaskSpec{
				"A": {Instances: 1, CPUMilli: 1, MemoryMB: 1, DurationMS: 1},
			},
		}
	}
	d := base()
	d.Name = ""
	if d.Validate() == nil {
		t.Error("empty name accepted")
	}
	d = base()
	d.Tasks = nil
	if d.Validate() == nil {
		t.Error("no tasks accepted")
	}
	d = base()
	d.Tasks["A"] = TaskSpec{Instances: 0, CPUMilli: 1, MemoryMB: 1, DurationMS: 1}
	if d.Validate() == nil {
		t.Error("zero instances accepted")
	}
	d = base()
	d.Tasks["A"] = TaskSpec{Instances: 1, CPUMilli: 0, MemoryMB: 1, DurationMS: 1}
	if d.Validate() == nil {
		t.Error("zero cpu accepted")
	}
	d = base()
	d.Tasks["A"] = TaskSpec{Instances: 1, CPUMilli: 1, MemoryMB: 1, DurationMS: 0}
	if d.Validate() == nil {
		t.Error("zero duration accepted")
	}
	d = base()
	d.Pipes = []Pipe{{Source: AccessPoint{AccessPoint: "ghost:o"}, Destination: AccessPoint{AccessPoint: "A:i"}}}
	if d.Validate() == nil {
		t.Error("unknown source task accepted")
	}
	d = base()
	d.Pipes = []Pipe{{Source: AccessPoint{FilePattern: "pangu://a"}, Destination: AccessPoint{FilePattern: "pangu://b"}}}
	if d.Validate() == nil {
		t.Error("file-to-file pipe accepted")
	}
	if _, err := Parse([]byte("{not json")); err == nil {
		t.Error("bad json accepted")
	}
}

func TestAccessPointTask(t *testing.T) {
	if (AccessPoint{AccessPoint: "T1:input"}).Task() != "T1" {
		t.Error("task parse failed")
	}
	if (AccessPoint{AccessPoint: "T1"}).Task() != "T1" {
		t.Error("portless task parse failed")
	}
	if (AccessPoint{FilePattern: "pangu://x"}).Task() != "" {
		t.Error("file treated as task")
	}
}

func TestInstanceStateString(t *testing.T) {
	if InstancePending.String() != "pending" || InstanceRunning.String() != "running" ||
		InstanceDone.String() != "done" || InstanceState(9).String() != "unknown" {
		t.Error("state strings wrong")
	}
}

func TestSnapshotStore(t *testing.T) {
	s := NewSnapshotStore()
	if !s.Empty() {
		t.Error("fresh store not empty")
	}
	s.SaveInstance("T1", 0, InstanceSnap{State: InstanceRunning}) // no task yet: dropped
	if s.Writes != 0 {
		t.Error("write to unknown task counted")
	}
	s.SaveTask("T1", true, false, 3)
	s.SaveInstance("T1", 1, InstanceSnap{State: InstanceRunning, Worker: 1, Attempt: 2})
	s.SaveInstance("T1", 99, InstanceSnap{}) // out of range: dropped
	snap := s.Task("T1")
	if snap == nil || snap.Instances[1].Worker != 1 || snap.Instances[1].Attempt != 2 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Completed {
		t.Error("not completed yet")
	}
	s.SaveTask("T1", true, true, 3)
	if !s.Task("T1").Completed {
		t.Error("completion not recorded")
	}
	if s.Empty() {
		t.Error("store empty after writes")
	}
}
