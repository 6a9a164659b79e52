package appmaster

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// ghostMachines are machine IDs the harness's four-machine topology does not
// hold.
var ghostMachines = []int32{-1, 4, 1 << 20}

// agentTraffic counts what the harness's agents have received.
func (h *harness) agentTraffic() int {
	n := 0
	for _, msgs := range h.toAgent {
		n += len(msgs)
	}
	return n
}

// TestWorkerStatusOutsideTopologyDroppedWhole: a status naming a machine the
// topology does not hold changes no worker row and fires no callback, even
// for a worker the application tracks.
func TestWorkerStatusOutsideTopologyDroppedWhole(t *testing.T) {
	h := newHarness(t, 0)
	h.am.StartWorker(1, h.top.MachineID("r000m000"), 1)
	h.eng.Run(10 * sim.Millisecond)
	slots, _ := h.net.Footprint()
	from := h.net.Lookup(protocol.AgentEndpoint("r000m000"))
	for i, m := range ghostMachines {
		h.net.SendID(from, h.am.ID(), protocol.WorkerStatus{
			Machine: m, Worker: 1, State: protocol.WorkerFailed, Seq: uint64(i + 1),
		})
	}
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	if len(h.statuses) != 0 {
		t.Errorf("OnWorker fired %d times for machines outside the topology", len(h.statuses))
	}
	if w := h.am.Worker(1); w == nil || w.State != protocol.WorkerStarting {
		t.Errorf("worker row changed: %+v", w)
	}
	if after, _ := h.net.Footprint(); after != slots {
		t.Errorf("endpoint slots %d -> %d", slots, after)
	}
	// The same status about the worker's own machine is applied.
	h.net.SendID(from, h.am.ID(), protocol.WorkerStatus{
		Machine: h.top.MachineID("r000m000"), Worker: 1, State: protocol.WorkerFailed, Seq: 9,
	})
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	if len(h.statuses) != 1 || h.am.Worker(1) != nil {
		t.Errorf("in-topology status: %d callbacks, worker %+v", len(h.statuses), h.am.Worker(1))
	}
}

// TestWorkerListRequestOutsideTopologyGetsNoReply: a restarting agent's
// request naming a machine the topology does not hold gets no reply and
// interns no endpoint (the name-keyed AM interned "agent:<name>" for one).
func TestWorkerListRequestOutsideTopologyGetsNoReply(t *testing.T) {
	h := newHarness(t, 0)
	h.am.StartWorker(1, h.top.MachineID("r000m000"), 1)
	h.eng.Run(10 * sim.Millisecond)
	slots, _ := h.net.Footprint()
	sent, seen := h.net.Stats().Sent, h.agentTraffic()
	from := h.net.Lookup(protocol.AgentEndpoint("r000m000"))
	for i, m := range ghostMachines {
		h.net.SendID(from, h.am.ID(), protocol.WorkerListRequest{Machine: m, Seq: uint64(i + 1)})
	}
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	if got := h.net.Stats().Sent - sent; got != uint64(len(ghostMachines)) {
		t.Errorf("%d sends for %d requests: the AM replied", got, len(ghostMachines))
	}
	if h.agentTraffic() != seen {
		t.Error("an agent heard a reply")
	}
	if after, _ := h.net.Footprint(); after != slots {
		t.Errorf("endpoint slots %d -> %d", slots, after)
	}
}

// TestWorkerCallsOutsideTopologySendNothing: the job-side calls that address
// an agent refuse a machine the topology does not hold, before any worker row
// or message.
func TestWorkerCallsOutsideTopologySendNothing(t *testing.T) {
	h := newHarness(t, 0)
	h.eng.Run(10 * sim.Millisecond)
	slots, _ := h.net.Footprint()
	sent := h.net.Stats().Sent
	for _, m := range ghostMachines {
		h.am.StartWorker(1, m, 1)
		h.am.AdoptWorker(1, m, 2)
		h.am.StopWorkerOn(m, 3)
		h.am.ReportBadMachine(m)
	}
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	if h.am.Worker(1) != nil || h.am.Worker(2) != nil {
		t.Error("a worker outside the topology is tracked")
	}
	if got := h.net.Stats().Sent - sent; got != 0 {
		t.Errorf("%d messages sent", got)
	}
	if after, _ := h.net.Footprint(); after != slots {
		t.Errorf("endpoint slots %d -> %d", slots, after)
	}
}

// TestAgentSendNeverInterns: an agent endpoint the network never knew is not
// created by addressing it — the work plan and the stop are dropped unsent.
func TestAgentSendNeverInterns(t *testing.T) {
	eng := sim.NewEngine(5)
	net := transport.NewNet(eng)
	top, err := topology.Build(topology.Spec{Racks: 1, MachinesPerRack: 2, MachineCapacity: resource.New(12000, 96*1024)})
	if err != nil {
		t.Fatal(err)
	}
	net.Register(protocol.MasterEndpoint, func(transport.EndpointID, transport.Message) {})
	am := New(Config{App: "app1", Units: []resource.ScheduleUnit{{ID: 1, Priority: 1, MaxCount: 2, Size: resource.New(1000, 2048)}}},
		eng, net, top, nil)
	eng.Run(10 * sim.Millisecond)
	slots, _ := net.Footprint()
	sent := net.Stats().Sent
	am.StartWorker(1, 1, 1)
	am.StopWorker(1)
	am.StopWorkerOn(0, 2)
	eng.Run(eng.Now() + 10*sim.Millisecond)
	if got := net.Stats().Sent - sent; got != 0 {
		t.Errorf("%d messages sent to agents the network does not know", got)
	}
	if after, _ := net.Footprint(); after != slots {
		t.Errorf("endpoint slots %d -> %d", slots, after)
	}
}

// TestWorkerMessagesOnlyFromTheMachinesAgent: a worker status or a worker-list
// request speaks for one machine's workers, and only that machine's agent may
// send it. While any endpoint could, another machine's agent, another
// application or a worker process could report the application's worker
// failed, and be answered with its worker list.
func TestWorkerMessagesOnlyFromTheMachinesAgent(t *testing.T) {
	h := newHarness(t, 0)
	h.net.Register("app2", func(transport.EndpointID, transport.Message) {})
	h.am.StartWorker(1, h.top.MachineID("r000m000"), 1)
	h.eng.Run(10 * sim.Millisecond)
	seen := h.agentTraffic()
	for i, from := range []string{protocol.AgentEndpoint("r000m001"), "app2", "wkr:app1:1", protocol.MasterEndpoint} {
		ep := h.net.Endpoint(from)
		h.net.SendID(ep, h.am.ID(), protocol.WorkerStatus{
			Machine: h.top.MachineID("r000m000"), Worker: 1, State: protocol.WorkerFailed, Seq: uint64(i + 1),
		})
		h.net.SendID(ep, h.am.ID(), protocol.WorkerListRequest{Machine: h.top.MachineID("r000m000"), Seq: uint64(i + 1)})
	}
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	if len(h.statuses) != 0 {
		t.Errorf("OnWorker fired %d times for statuses not from the machine's agent", len(h.statuses))
	}
	if w := h.am.Worker(1); w == nil || w.State != protocol.WorkerStarting {
		t.Errorf("worker row changed: %+v", w)
	}
	if h.agentTraffic() != seen {
		t.Error("a worker-list request not from the machine's agent was answered")
	}
	// From the machine's own agent, both are taken.
	agent := h.net.Lookup(protocol.AgentEndpoint("r000m000"))
	h.net.SendID(agent, h.am.ID(), protocol.WorkerListRequest{Machine: h.top.MachineID("r000m000"), Seq: 9})
	h.net.SendID(agent, h.am.ID(), protocol.WorkerStatus{
		Machine: h.top.MachineID("r000m000"), Worker: 1, State: protocol.WorkerFailed, Seq: 10,
	})
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	if len(h.statuses) != 1 || h.am.Worker(1) != nil || h.agentTraffic() != seen+1 {
		t.Errorf("from the agent: %d callbacks, worker %+v, %d replies", len(h.statuses), h.am.Worker(1), h.agentTraffic()-seen)
	}
}
