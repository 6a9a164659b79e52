package job

import (
	"testing"

	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// fakeEnv is a scriptable cluster ground truth.
type fakeEnv struct {
	dead map[uint32]bool
	slow map[int32]float64
}

func newFakeEnv() *fakeEnv {
	return &fakeEnv{dead: map[uint32]bool{}, slow: map[int32]float64{}}
}

// m1 is the machine the tests' workers run on.
const m1 int32 = 1

func (e *fakeEnv) ProcAlive(machine int32, app transport.EndpointID, worker uint32) bool {
	return !e.dead[worker]
}
func (e *fakeEnv) Slowdown(machine int32) float64 {
	if f, ok := e.slow[machine]; ok {
		return f
	}
	return 1
}

type wsHarness struct {
	eng     *sim.Engine
	net     *transport.Net
	env     *fakeEnv
	rt      *Runtime
	reports []InstanceReport
}

func newWSHarness(t *testing.T) *wsHarness {
	t.Helper()
	eng := sim.NewEngine(3)
	net := transport.NewNet(eng)
	h := &wsHarness{eng: eng, net: net, env: newFakeEnv()}
	h.rt = NewRuntime(eng, net, h.env, "jobx", sim.Second)
	net.Register("jobx", func(_ transport.EndpointID, m transport.Message) {
		if r, ok := m.(InstanceReport); ok {
			h.reports = append(h.reports, r)
		}
	})
	return h
}

func (h *wsHarness) assign(worker uint32, inst, attempt int, d sim.Time) {
	h.net.SendID(h.net.Endpoint("jobx"), h.net.Endpoint(WorkerEndpoint("jobx", worker)), AssignInstance{
		Task: "T", Instance: inst, Attempt: attempt, Duration: d,
	})
	h.eng.Run(h.eng.Now() + sim.Millisecond)
}

func (h *wsHarness) doneReports() []InstanceReport {
	var out []InstanceReport
	for _, r := range h.reports {
		if r.Done {
			out = append(out, r)
		}
	}
	return out
}

func TestWorkerExecutesAndReports(t *testing.T) {
	h := newWSHarness(t)
	h.rt.Ensure(1, m1)
	h.assign(1, 7, 0, 2*sim.Second)
	h.eng.Run(h.eng.Now() + 3*sim.Second)
	done := h.doneReports()
	if len(done) != 1 || done[0].Instance != 7 || done[0].Attempt != 0 {
		t.Fatalf("done reports = %v", done)
	}
}

func TestWorkerSlowdownStretchesExecution(t *testing.T) {
	h := newWSHarness(t)
	h.env.slow[m1] = 5
	h.rt.Ensure(1, m1)
	h.assign(1, 1, 0, 2*sim.Second)
	h.eng.Run(h.eng.Now() + 3*sim.Second)
	if len(h.doneReports()) != 0 {
		t.Fatal("slow worker finished at normal speed")
	}
	h.eng.Run(h.eng.Now() + 8*sim.Second)
	if len(h.doneReports()) != 1 {
		t.Fatal("slow worker never finished")
	}
}

func TestWorkerPeriodicProgressAndIdleReports(t *testing.T) {
	h := newWSHarness(t)
	w := h.rt.Ensure(1, m1)
	w.Task = "T"
	h.eng.Run(h.eng.Now() + 2500*sim.Millisecond)
	idle := 0
	for _, r := range h.reports {
		if r.Idle {
			idle++
			if r.Task != "T" {
				t.Errorf("idle report task = %q", r.Task)
			}
		}
	}
	if idle < 2 {
		t.Fatalf("idle reports = %d, want >= 2", idle)
	}
	h.reports = nil
	h.assign(1, 3, 1, 10*sim.Second)
	h.eng.Run(h.eng.Now() + 3*sim.Second)
	prog := 0
	for _, r := range h.reports {
		if !r.Idle && !r.Done {
			prog++
			if r.Progress <= 0 || r.Progress > 0.99 {
				t.Errorf("progress = %v", r.Progress)
			}
			if r.Instance != 3 || r.Attempt != 1 {
				t.Errorf("progress report = %+v", r)
			}
		}
	}
	if prog < 2 {
		t.Errorf("progress reports = %d", prog)
	}
}

func TestDeadWorkerNeitherCompletesNorReports(t *testing.T) {
	h := newWSHarness(t)
	h.rt.Ensure(1, m1)
	h.assign(1, 1, 0, 2*sim.Second)
	h.env.dead[1] = true // process killed mid-run
	h.reports = nil
	h.eng.Run(h.eng.Now() + 5*sim.Second)
	if len(h.reports) != 0 {
		t.Fatalf("dead worker reported: %v", h.reports)
	}
	if h.rt.Live() != 0 {
		t.Error("dead worker sim not reaped")
	}
}

func TestKillInstanceCancelsExecution(t *testing.T) {
	h := newWSHarness(t)
	h.rt.Ensure(1, m1)
	h.assign(1, 1, 0, 2*sim.Second)
	h.net.SendID(h.net.Endpoint("jobx"), h.net.Endpoint(WorkerEndpoint("jobx", 1)), KillInstance{Task: "T", Instance: 1})
	h.eng.Run(h.eng.Now() + 5*sim.Second)
	if len(h.doneReports()) != 0 {
		t.Fatal("killed instance completed")
	}
	// The worker reports idle immediately after the kill.
	sawIdle := false
	for _, r := range h.reports {
		if r.Idle {
			sawIdle = true
		}
	}
	if !sawIdle {
		t.Error("no idle report after kill")
	}
}

func TestDuplicateAssignmentIgnored(t *testing.T) {
	h := newWSHarness(t)
	h.rt.Ensure(1, m1)
	h.assign(1, 1, 0, 2*sim.Second)
	h.eng.Run(h.eng.Now() + sim.Second)
	h.assign(1, 1, 0, 2*sim.Second) // duplicate mid-run: must not restart the clock
	h.eng.Run(h.eng.Now() + 1500*sim.Millisecond)
	if len(h.doneReports()) != 1 {
		t.Fatalf("done = %d, want 1 (original timing preserved)", len(h.doneReports()))
	}
}

func TestReassignmentPreemptsCurrent(t *testing.T) {
	h := newWSHarness(t)
	h.rt.Ensure(1, m1)
	h.assign(1, 1, 0, 10*sim.Second)
	h.assign(1, 2, 0, sim.Second) // new assignment replaces the old
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	done := h.doneReports()
	if len(done) != 1 || done[0].Instance != 2 {
		t.Fatalf("done = %v, want instance 2 only", done)
	}
	h.eng.Run(h.eng.Now() + 20*sim.Second)
	for _, r := range h.doneReports() {
		if r.Instance == 1 {
			t.Fatal("preempted instance still completed")
		}
	}
}

// TestLateTrafficInternsNoRetiredName: a worker keeps reporting after its
// job's application master retired its endpoint at the unregister ack, and
// the JobMaster can still address a worker the runtime already reaped (a kill
// for a sibling, a resent assignment). Each message goes to the retired ID
// and is dropped on arrival. Sent by name, it would intern the retired name
// again, on a fresh slot that nothing ever retires.
func TestLateTrafficInternsNoRetiredName(t *testing.T) {
	h := newWSHarness(t)
	top, err := topology.Build(topology.Spec{Racks: 1, MachinesPerRack: 2, MachineCapacity: resource.New(12000, 96*1024)})
	if err != nil {
		t.Fatal(err)
	}
	desc := &Description{Name: "jobx", Tasks: map[string]TaskSpec{
		"T": {Instances: 1, CPUMilli: 500, MemoryMB: 512, DurationMS: 1000},
	}}
	jm, err := New(Config{Desc: desc, Rt: h.rt}, h.eng, h.net, top)
	if err != nil {
		t.Fatal(err)
	}
	h.rt.Ensure(1, m1)
	h.rt.Ensure(2, m1)
	h.env.dead[2] = true
	h.eng.Run(h.eng.Now() + 1500*sim.Millisecond)
	if h.rt.Worker(2) != nil {
		t.Fatal("the dead worker was not reaped")
	}
	slots, live := h.net.Footprint()
	jm.sendToWorker(2, KillInstance{Task: "T", Instance: 0})
	h.net.Retire(h.net.Lookup("jobx")) // what the application master does at the unregister ack
	jm.sendToWorker(1, KillInstance{Task: "T", Instance: 0})
	h.eng.Run(h.eng.Now() + 3*sim.Second)
	s, l := h.net.Footprint()
	if s != slots || l != live-1 || h.net.Lookup("jobx") != transport.None ||
		h.net.Lookup(WorkerEndpoint("jobx", 2)) != transport.None {
		t.Fatalf("%d slots, %d live, Lookup(jobx) = %d, Lookup(w2) = %d; want %d, %d and None twice: a retired name was interned again",
			s, l, h.net.Lookup("jobx"), h.net.Lookup(WorkerEndpoint("jobx", 2)), slots, live-1)
	}
}

func TestEnsureIdempotent(t *testing.T) {
	h := newWSHarness(t)
	a := h.rt.Ensure(1, m1)
	b := h.rt.Ensure(1, m1)
	if a != b {
		t.Error("Ensure created a duplicate worker")
	}
	if h.rt.Worker(1) != a {
		t.Error("Worker lookup mismatch")
	}
	if h.rt.Worker(99) != nil {
		t.Error("unknown worker non-nil")
	}
}
