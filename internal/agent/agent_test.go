package agent

import (
	"strings"
	"testing"

	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

type harness struct {
	eng   *sim.Engine
	net   *transport.Net
	agent *Agent
	// captured messages by destination
	toMaster []transport.Message
	toApp    []transport.Message
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	eng := sim.NewEngine(3)
	net := transport.NewNet(eng)
	top, err := topology.Build(topology.Spec{
		Racks: 1, MachinesPerRack: 1,
		MachineCapacity: resource.New(12000, 96*1024),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{eng: eng, net: net}
	// Heartbeats are pooled (the network reuses each once its handler
	// returns); a capturing test keeps a copy.
	net.Register(protocol.MasterEndpoint, func(_ transport.EndpointID, m transport.Message) {
		h.toMaster = append(h.toMaster, protocol.Keep(m))
	})
	net.Register("app1", func(_ transport.EndpointID, m transport.Message) { h.toApp = append(h.toApp, m) })
	h.agent = New(DefaultConfig(), eng, net, top.Machine(top.Machines()[0]))
	return h
}

// ep returns the wire identity of an application: its endpoint ID.
func (h *harness) ep(app string) int32 { return int32(h.net.Endpoint(app)) }

func (h *harness) grantCapacity(app string, unitID, count int, size resource.Vector) {
	h.net.Send(protocol.MasterEndpoint, protocol.AgentEndpoint(h.agent.Machine), protocol.CapacityDelta{
		Entries: []protocol.CapacityEntry{{App: h.ep(app), UnitID: unitID, Size: size, Count: count}},
		Seq:     uint64(h.eng.Fired() + 1e6),
	})
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
}

func (h *harness) sendPlan(app string, unitID int, workerID string, size resource.Vector, seq uint64) {
	h.net.Send(app, protocol.AgentEndpoint(h.agent.Machine), protocol.WorkPlan{
		App: app, UnitID: unitID, WorkerID: workerID, Size: size, Seq: seq,
	})
}

func (h *harness) lastAppStatus(t *testing.T) protocol.WorkerStatus {
	t.Helper()
	for i := len(h.toApp) - 1; i >= 0; i-- {
		if s, ok := h.toApp[i].(protocol.WorkerStatus); ok {
			return s
		}
	}
	t.Fatal("no WorkerStatus received")
	return protocol.WorkerStatus{}
}

var size = resource.New(1000, 2048)

func TestHeartbeatsFlow(t *testing.T) {
	h := newHarness(t)
	h.eng.Run(5 * sim.Second)
	beats := 0
	for _, m := range h.toMaster {
		if _, ok := m.(protocol.AgentHeartbeat); ok {
			beats++
		}
	}
	if beats < 4 {
		t.Errorf("heartbeats = %d, want >= 4", beats)
	}
}

func TestHeartbeatCarriesAllocations(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 3, size)
	h.toMaster = nil
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	found := false
	for _, m := range h.toMaster {
		hb, ok := m.(protocol.AgentHeartbeat)
		if !ok {
			continue
		}
		for _, d := range hb.Allocations {
			if d.App == h.ep("app1") && d.UnitID == 1 && d.Count == 3 {
				found = true
			}
		}
		for _, d := range hb.Changes {
			if d.App == h.ep("app1") && d.UnitID == 1 && d.Count == 3 {
				found = true
			}
		}
	}
	if !found {
		t.Error("heartbeat missing allocations")
	}
}

func TestWorkerStartWithinCapacity(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 2, size)
	h.sendPlan("app1", 1, "w1", size, 1)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	s := h.lastAppStatus(t)
	if s.WorkerID != "w1" || s.State != protocol.WorkerRunning {
		t.Errorf("status = %+v", s)
	}
	if h.agent.Proc("w1") == nil || h.agent.Proc("w1").State != protocol.WorkerRunning {
		t.Error("proc not running")
	}
}

func TestWorkerRefusedWithoutCapacity(t *testing.T) {
	h := newHarness(t)
	h.sendPlan("app1", 1, "w1", size, 1)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	s := h.lastAppStatus(t)
	if s.State != protocol.WorkerFailed || !strings.Contains(s.FailureDetail, "no capacity") {
		t.Errorf("status = %+v", s)
	}
}

func TestWorkerRefusedBeyondCapacity(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 1, size)
	h.sendPlan("app1", 1, "w1", size, 1)
	h.sendPlan("app1", 1, "w2", size, 2)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	if h.agent.Proc("w1") == nil {
		t.Error("first worker missing")
	}
	if h.agent.Proc("w2") != nil {
		t.Error("second worker started beyond capacity")
	}
}

func TestStopWorker(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 1, size)
	h.sendPlan("app1", 1, "w1", size, 1)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	h.net.Send("app1", protocol.AgentEndpoint(h.agent.Machine), protocol.StopWorker{App: "app1", WorkerID: "w1", Seq: 2})
	h.eng.Run(h.eng.Now() + sim.Second)
	if h.agent.Proc("w1") != nil {
		t.Error("proc still present after stop")
	}
	if s := h.lastAppStatus(t); s.State != protocol.WorkerFinished {
		t.Errorf("status = %+v", s)
	}
}

func TestCapacityEnsuranceKillsExcess(t *testing.T) {
	// Paper §2.2: "when the resource capacity decreases and application
	// master does not choose one process to stop, FuxiAgent will kill one
	// process of this application compulsorily".
	h := newHarness(t)
	h.grantCapacity("app1", 1, 2, size)
	h.sendPlan("app1", 1, "w1", size, 1)
	h.sendPlan("app1", 1, "w2", size, 2)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	h.grantCapacity("app1", 1, -1, size) // revoke one container
	h.eng.Run(h.eng.Now() + sim.Second)
	alive := 0
	for _, p := range h.agent.Procs() {
		if p.App == "app1" {
			alive++
		}
	}
	if alive != 1 {
		t.Errorf("alive = %d, want 1", alive)
	}
	if h.agent.KilledForCapacity != 1 {
		t.Errorf("KilledForCapacity = %d", h.agent.KilledForCapacity)
	}
	// Most recent worker dies first.
	if h.agent.Proc("w1") == nil || h.agent.Proc("w2") != nil {
		t.Error("wrong victim")
	}
}

func TestOverloadKillsWorstOffender(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 2, size)
	h.sendPlan("app1", 1, "w1", size, 1)
	h.sendPlan("app1", 1, "w2", size, 2)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	// w2's real usage explodes beyond machine capacity.
	h.agent.Proc("w2").Usage = resource.New(1000, 100*1024)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	if h.agent.Proc("w2") != nil {
		t.Error("over-user survived")
	}
	if h.agent.Proc("w1") == nil {
		t.Error("well-behaved worker killed")
	}
	if h.agent.KilledForOverload != 1 {
		t.Errorf("KilledForOverload = %d", h.agent.KilledForOverload)
	}
	if s := h.lastAppStatus(t); !strings.Contains(s.FailureDetail, "overload") {
		t.Errorf("detail = %q", s.FailureDetail)
	}
}

func TestOverloadIgnoresVirtualDimensions(t *testing.T) {
	// Virtual resources are scheduler-side tokens; a worker sized with a
	// virtual dimension the machine's physical capacity vector lacks must
	// not trip the overload killer.
	h := newHarness(t)
	vsize := resource.New(1000, 2048).With("FrontendSlot", 1)
	h.grantCapacity("app1", 1, 1, vsize)
	h.sendPlan("app1", 1, "w1", vsize, 1)
	h.eng.Run(h.eng.Now() + 3*sim.Second)
	if h.agent.Proc("w1") == nil {
		t.Fatal("worker with virtual-dim size was killed")
	}
	if h.agent.KilledForOverload != 0 {
		t.Errorf("KilledForOverload = %d", h.agent.KilledForOverload)
	}
}

func TestCrashWorkerAutoRestarts(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 1, size)
	h.sendPlan("app1", 1, "w1", size, 1)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	h.toApp = nil
	h.agent.CrashWorker("w1", "segfault")
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	// Failure was reported AND the process is running again.
	sawFail := false
	for _, m := range h.toApp {
		if s, ok := m.(protocol.WorkerStatus); ok && s.State == protocol.WorkerFailed {
			sawFail = true
		}
	}
	if !sawFail {
		t.Error("crash not reported")
	}
	p := h.agent.Proc("w1")
	if p == nil || p.State != protocol.WorkerRunning {
		t.Error("worker not restarted")
	}
}

func TestDaemonCrashKeepsProcesses(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 1, size)
	h.sendPlan("app1", 1, "w1", size, 1)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	h.agent.CrashDaemon()
	if h.agent.Up() {
		t.Fatal("agent still up")
	}
	// Paper §4.3.1: processes survive the daemon.
	if h.agent.Proc("w1") == nil {
		t.Fatal("process killed by daemon crash")
	}
	h.toMaster = nil
	h.eng.Run(h.eng.Now() + 3*sim.Second)
	if len(h.toMaster) != 0 {
		t.Error("heartbeats continued while daemon down")
	}
}

func TestDaemonRestartAdoptsAndResyncs(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 1, size)
	h.sendPlan("app1", 1, "w1", size, 1)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	h.agent.CrashDaemon()
	h.eng.Run(h.eng.Now() + sim.Second)

	h.toMaster, h.toApp = nil, nil
	h.agent.RestartDaemon()
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)

	// It must query the master for capacity and the app for worker lists.
	sawQuery := false
	for _, m := range h.toMaster {
		if _, ok := m.(protocol.CapacityQuery); ok {
			sawQuery = true
		}
	}
	if !sawQuery {
		t.Error("no CapacityQuery after restart")
	}
	sawListReq := false
	for _, m := range h.toApp {
		if _, ok := m.(protocol.WorkerListRequest); ok {
			sawListReq = true
		}
	}
	if !sawListReq {
		t.Error("no WorkerListRequest after restart")
	}

	// Master replies with the capacity table; app replies with its list;
	// the process is adopted, not killed.
	h.net.Send(protocol.MasterEndpoint, protocol.AgentEndpoint(h.agent.Machine), protocol.CapacitySync{
		Machine: h.agent.ID(),
		Entries: []protocol.CapacityEntry{{App: h.ep("app1"), UnitID: 1, Size: size, Count: 1}},
		Seq:     999,
	})
	h.net.Send("app1", protocol.AgentEndpoint(h.agent.Machine), protocol.WorkerListReply{
		App:     "app1",
		Workers: []protocol.WorkPlan{{App: "app1", UnitID: 1, WorkerID: "w1", Size: size}},
		Seq:     1000,
	})
	h.eng.Run(h.eng.Now() + sim.Second)
	p := h.agent.Proc("w1")
	if p == nil || p.State != protocol.WorkerRunning {
		t.Error("worker not adopted after daemon restart")
	}
	if h.agent.Capacity("app1", 1) != 1 {
		t.Errorf("capacity = %d, want 1", h.agent.Capacity("app1", 1))
	}
}

// TestRestartAddressesFinishedAppByID: a daemon that restarts while a
// finished application's worker still runs (its capacity release in flight)
// asks that application for its worker list, and a reply that names the
// finished application reports its missing workers. Both go to an endpoint
// ID — the retired one the worker was planned from, and the replying
// sender's — and the network drops what names a retired one. Sent by name,
// each would intern the retired name again, on a fresh slot nothing ever
// retires.
func TestRestartAddressesFinishedAppByID(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 1, size)
	h.sendPlan("app1", 1, "w1", size, 1)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	if h.agent.Proc("w1") == nil {
		t.Fatal("app1's worker did not start")
	}
	h.net.Retire(h.net.Lookup("app1"))
	h.net.Register("app2", func(transport.EndpointID, transport.Message) {})
	h.agent.CrashDaemon()
	slots, live := h.net.Footprint()
	h.agent.RestartDaemon()
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	h.net.Send("app2", protocol.AgentEndpoint(h.agent.Machine), protocol.WorkerListReply{
		App:     "app1",
		Workers: []protocol.WorkPlan{{App: "app1", UnitID: 1, WorkerID: "w9", Size: size}},
		Seq:     1000,
	})
	h.eng.Run(h.eng.Now() + sim.Second)
	if s, l := h.net.Footprint(); s != slots || l != live || h.net.Lookup("app1") != transport.None {
		t.Fatalf("%d slots, %d live, Lookup(app1) = %d; want %d, %d and None: a retired name was interned again",
			s, l, h.net.Lookup("app1"), slots, live)
	}
	if h.agent.Proc("w1") != nil {
		t.Error("the worker the reply does not list survived adoption")
	}
}

func TestAdoptKillsUnknownProcs(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 2, size)
	h.sendPlan("app1", 1, "w1", size, 1)
	h.sendPlan("app1", 1, "w2", size, 2)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	h.agent.CrashDaemon()
	h.agent.RestartDaemon()
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	// App only acknowledges w1.
	h.net.Send("app1", protocol.AgentEndpoint(h.agent.Machine), protocol.WorkerListReply{
		App:     "app1",
		Workers: []protocol.WorkPlan{{App: "app1", UnitID: 1, WorkerID: "w1", Size: size}},
		Seq:     1000,
	})
	h.eng.Run(h.eng.Now() + sim.Second)
	if h.agent.Proc("w2") != nil {
		t.Error("unacknowledged process survived adoption")
	}
	if h.agent.Proc("w1") == nil {
		t.Error("acknowledged process killed")
	}
}

func TestMachineCrashKillsEverything(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 1, size)
	h.sendPlan("app1", 1, "w1", size, 1)
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	h.toApp = nil
	h.agent.CrashMachine()
	h.eng.Run(h.eng.Now() + 3*sim.Second)
	if len(h.agent.Procs()) != 0 {
		t.Error("processes survived machine crash")
	}
	// A dead machine reports nothing.
	for _, m := range h.toApp {
		if _, ok := m.(protocol.WorkerStatus); ok {
			t.Error("status escaped a dead machine")
		}
	}
	// Reboot: fresh table, heartbeats resume.
	h.toMaster = nil
	h.agent.RestartMachine()
	h.eng.Run(h.eng.Now() + 3*sim.Second)
	beats := 0
	for _, m := range h.toMaster {
		if _, ok := m.(protocol.AgentHeartbeat); ok {
			beats++
		}
	}
	if beats == 0 {
		t.Error("no heartbeats after machine restart")
	}
}

func TestHealthScoreInHeartbeat(t *testing.T) {
	h := newHarness(t)
	h.agent.SetHealth(12)
	h.eng.Run(2 * sim.Second)
	found := false
	for _, m := range h.toMaster {
		if hb, ok := m.(protocol.AgentHeartbeat); ok && hb.HealthScore == 12 {
			found = true
		}
	}
	if !found {
		t.Error("health score not propagated")
	}
}

func TestDuplicateWorkPlanIgnored(t *testing.T) {
	h := newHarness(t)
	h.grantCapacity("app1", 1, 2, size)
	h.sendPlan("app1", 1, "w1", size, 7)
	h.sendPlan("app1", 1, "w1", size, 7) // duplicate delivery
	h.eng.Run(h.eng.Now() + 2*sim.Second)
	if len(h.agent.Procs()) != 1 {
		t.Errorf("procs = %d, want 1", len(h.agent.Procs()))
	}
}
