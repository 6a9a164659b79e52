package appmaster

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
)

// TestTeardownReleasesBooks: an owner may keep a finished application master
// (the scale harness lists it until its next squeeze, a job runtime keeps its
// handle), so the teardown the master's ack completes must leave nothing per
// unit behind: the ledger slice becomes garbage while the AM itself is still
// referenced.
func TestTeardownReleasesBooks(t *testing.T) {
	h := newHarness(t, 0)
	units := make([]resource.ScheduleUnit, 40)
	for i := range units {
		units[i] = resource.ScheduleUnit{ID: i + 1, Priority: 1, MaxCount: 4, Size: resource.New(500, 1024)}
	}
	am := New(Config{App: "wide", Units: units}, h.eng, h.net, h.top, nil)
	for _, u := range units {
		am.Request(u.ID, resource.LocalityHint{Type: resource.LocalityCluster, Count: 2})
	}
	h.net.SendID(h.net.Endpoint(protocol.MasterEndpoint), h.net.Endpoint("wide"), &protocol.GrantUpdate{
		App: "wide", Changes: []protocol.UnitDelta{{UnitID: 1, Machine: 0, Delta: 1}}, Seq: 1,
	})
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	if am.Held(1, 0) != 1 || am.Outstanding(40) != 2 {
		t.Fatalf("setup: held %d, outstanding %d", am.Held(1, 0), am.Outstanding(40))
	}
	released := make(chan struct{})
	runtime.SetFinalizer(&am.units[0], func(*unitLedger) { close(released) })
	gone := func() bool {
		for try := 0; try < 20; try++ {
			runtime.GC()
			select {
			case <-released:
				return true
			case <-time.After(5 * time.Millisecond): // finalizers run on their own goroutine
			}
		}
		return false
	}

	am.ReturnContainers(1, 0, 1)
	am.Unregister()
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	if gone() {
		t.Fatal("books released before the master acknowledged the unregister")
	}
	h.net.SendID(h.net.Endpoint(protocol.MasterEndpoint), h.net.Endpoint("wide"), &protocol.UnregisterAck{App: "wide", Seq: 2})
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	if !gone() {
		t.Error("the ledger slice is still reachable after the ack")
	}
	if am.Held(1, 0) != 0 || am.Outstanding(40) != 0 || am.HeldCells(1) != nil {
		t.Error("a torn-down AM still reports books")
	}
	runtime.KeepAlive(am)
}
