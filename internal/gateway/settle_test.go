package gateway

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestTerminalSlabsAreDropped: a gateway runs for months and sees every job
// ever submitted, but it reads a job's record only until the job is
// terminal. A slab of 256 records goes as soon as all of them are completed
// or shed, while conservation still counts every row and a resubmitted ID
// is still a duplicate.
func TestTerminalSlabsAreDropped(t *testing.T) {
	lim := DefaultLimits()
	lim.RefillEvery, lim.QueueCap, lim.MaxQueued, lim.MaxInFlight = 0, 0, 0, 0
	lim.AdmitPerRound = 1000
	f := newFixture(t, lim)
	const n = 2*recSlabSize + 10
	for i := 0; i < n; i++ {
		f.gw.Submit(Job{ID: fmt.Sprintf("j%d", i), Tenant: fmt.Sprintf("t%d", i%7), Class: ClassBatch})
	}
	f.run(sim.Second)
	if len(f.reg) != n {
		t.Fatalf("setup: %d of %d jobs registered", len(f.reg), n)
	}
	const open = recSlabSize + 44 // one job of the second slab stays open
	for i := 0; i < n; i++ {
		if i != open {
			f.complete(fmt.Sprintf("j%d", i))
		}
	}
	if f.gw.recs[0] != nil || f.gw.recs[1] == nil || f.gw.recs[2] == nil {
		t.Errorf("slabs kept: %v %v %v, want only the one with an open job and the partial one",
			f.gw.recs[0] != nil, f.gw.recs[1] != nil, f.gw.recs[2] != nil)
	}
	if got := f.gw.RegisteredOpen(); len(got) != 1 || got[0] != fmt.Sprintf("j%d", open) {
		t.Errorf("RegisteredOpen = %v", got)
	}
	f.check(t, true)
	f.complete(fmt.Sprintf("j%d", open))
	if f.gw.recs[1] != nil {
		t.Error("a slab of completed jobs is still kept")
	}
	if kind := f.gw.Submit(Job{ID: "j3", Tenant: "t3", Class: ClassBatch}); kind != DecisionShedDuplicate {
		t.Errorf("resubmitting a completed job's ID: %v, want a duplicate", kind)
	}
	f.check(t, true)

	// Jobs shed at submission are terminal from birth.
	lim.MaxQueued = 1
	f = newFixture(t, lim)
	for i := 0; i < 2*recSlabSize; i++ {
		f.gw.Submit(Job{ID: fmt.Sprintf("s%d", i), Tenant: "hot", Class: ClassBatch})
	}
	if f.gw.recs[0] == nil || f.gw.recs[1] != nil {
		t.Errorf("slabs kept: %v %v, want the one holding the queued job only", f.gw.recs[0] != nil, f.gw.recs[1] != nil)
	}
	f.check(t, false)
}
