package agent_test

import (
	"fmt"
	"testing"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/sim"
)

// TestRetiredApplicationsLeaveNoPlanMarks: forty ten-instance map-reduce jobs
// run one after another on a 2×4 cluster. Each finished job's endpoint is
// retired, and after one anchor period no agent keeps more plan marks than
// it has live workers — where every planned worker used to leave a mark
// until the daemon restarted.
func TestRetiredApplicationsLeaveNoPlanMarks(t *testing.T) {
	c, err := core.NewCluster(core.Config{Racks: 2, MachinesPerRack: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	peak, left := 0, 0
	for i := range 40 {
		name := fmt.Sprintf("mr%02d", i)
		if _, err := c.FS.Create("pangu://"+name+"/input", 8*256); err != nil {
			t.Fatal(err)
		}
		h, err := c.SubmitJob(&job.Description{
			Name: name,
			Tasks: map[string]job.TaskSpec{
				"map":    {Instances: 8, CPUMilli: 500, MemoryMB: 2048, DurationMS: 500},
				"reduce": {Instances: 2, CPUMilli: 500, MemoryMB: 2048, DurationMS: 500},
			},
			Pipes: []job.Pipe{
				{Source: job.AccessPoint{FilePattern: "pangu://" + name + "/input"},
					Destination: job.AccessPoint{AccessPoint: "map:input"}},
				{Source: job.AccessPoint{AccessPoint: "map:out"},
					Destination: job.AccessPoint{AccessPoint: "reduce:in"}},
				{Source: job.AccessPoint{AccessPoint: "reduce:out"},
					Destination: job.AccessPoint{FilePattern: "pangu://" + name + "/output"}},
			},
		}, core.JobOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for deadline := c.Now() + 5*sim.Minute; !h.Done() && c.Now() < deadline; {
			c.Run(sim.Second)
			marks := 0
			for _, a := range c.Agents {
				marks += a.PlanMarks()
			}
			peak = max(peak, marks)
		}
		if !h.Done() {
			t.Fatalf("job %s not done", name)
		}
		c.Run(agent.AnchorEvery * sim.Second)
		for _, a := range c.Agents {
			left += a.PlanMarks()
			if marks, live := a.PlanMarks(), len(a.Procs()); marks > live {
				t.Fatalf("after job %s and an anchor, %s keeps %d plan marks for %d live workers", name, a.Machine, marks, live)
			}
		}
	}
	if peak == 0 || left != 0 {
		t.Fatalf("%d plan marks at a job's peak, %d left between jobs: want some, then none", peak, left)
	}
}
