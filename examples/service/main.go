// Service: the paper's "long running service" task model (§6), built
// directly on the application-master framework rather than the DAG job
// layer. A service master keeps N replicas running indefinitely: failed
// workers are replaced, revoked containers are re-requested, and a virtual
// resource ("FrontendSlot") caps per-node replica concurrency the way
// §3.2.1 describes for ASort.
package main

import (
	"fmt"
	"log"

	"repro/internal/appmaster"
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
)

const (
	replicas = 6
	slotDim  = "FrontendSlot"
)

// service is the service master: the application's state and, through
// appmaster.Callbacks, its reactions to resource and worker events.
type service struct {
	appmaster.NoCallbacks
	am      *appmaster.AM
	last    uint32           // the last worker number started
	running map[uint32]int32 // worker -> machine ID
}

func (s *service) nextID() uint32 {
	s.last++
	return s.last
}

// OnGrant starts one replica in every granted container.
func (s *service) OnGrant(unitID int, machine int32, count int) {
	for i := 0; i < count; i++ {
		s.am.StartWorker(unitID, machine, s.nextID())
	}
}

// OnRevoke asks for replacements anywhere: the containers are lost (node
// death, preemption).
func (s *service) OnRevoke(unitID int, machine int32, count int) {
	s.am.Request(unitID, resource.LocalityHint{Type: resource.LocalityCluster, Count: count})
}

// OnWorker tracks the running set and replaces a crashed replica in its
// still-held container.
func (s *service) OnWorker(st protocol.WorkerStatus) {
	switch st.State {
	case protocol.WorkerRunning:
		s.running[st.Worker] = st.Machine
	case protocol.WorkerFailed:
		delete(s.running, st.Worker)
		if s.am.Held(1, st.Machine) > 0 {
			s.am.StartWorker(1, st.Machine, s.nextID())
		}
	case protocol.WorkerFinished:
		delete(s.running, st.Worker)
	}
}

func main() {
	cluster, err := core.NewCluster(core.Config{Racks: 2, MachinesPerRack: 3, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	// Each node admits at most 1 frontend replica (anti-affinity through a
	// virtual resource). Virtual capacity is adjustable at runtime.
	for _, m := range cluster.Top.Machines() {
		cluster.Scheduler().SetVirtualResource(m, slotDim, 1)
	}

	unit := resource.ScheduleUnit{
		ID: 1, Priority: 10, MaxCount: replicas,
		Size: resource.New(2000, 8192).With(slotDim, 1),
	}

	svc := &service{running: map[uint32]int32{}}
	svc.am = cluster.NewAppMaster(appmaster.Config{
		App: "frontend", Units: []resource.ScheduleUnit{unit},
		FullSyncInterval: 10 * sim.Second,
	}, svc)
	am, running := svc.am, svc.running
	cluster.Run(100 * sim.Millisecond)
	am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: replicas})
	cluster.Run(5 * sim.Second)

	report := func(when string) {
		perMachine := map[int32]int{}
		for _, m := range running {
			perMachine[m]++
		}
		fmt.Printf("t=%4.0fs  %s: %d replicas on %d machines\n",
			cluster.Now().Seconds(), when, len(running), len(perMachine))
		for m, n := range perMachine {
			if n > 1 {
				fmt.Printf("  anti-affinity violated on %s (%d replicas)\n", cluster.Top.MachineName(m), n)
			}
		}
	}
	report("service up")

	// A replica's machine dies (the lowest-numbered one, so every run prints
	// the same); the master revokes, the service re-requests and is back to
	// full strength.
	victim := int32(cluster.Top.Size())
	for _, m := range running {
		victim = min(victim, m)
	}
	name := cluster.Top.MachineName(victim)
	fmt.Printf("t=%4.0fs  killing machine %s\n", cluster.Now().Seconds(), name)
	cluster.KillMachine(name)
	cluster.Run(15 * sim.Second)
	report("after node death")

	if len(running) != replicas {
		log.Fatalf("service degraded: %d/%d replicas", len(running), replicas)
	}
	fmt.Println("service healed transparently")
}
