package agent

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
)

func (h *harness) sendDelta(seq uint64, entries ...protocol.CapacityEntry) {
	h.net.Send(protocol.MasterEndpoint, protocol.AgentEndpoint(h.agent.Machine),
		protocol.CapacityDelta{Entries: entries, Seq: seq})
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
}

func (h *harness) repairQueries() []protocol.CapacityQuery {
	var out []protocol.CapacityQuery
	for _, m := range h.toMaster {
		if q, ok := m.(protocol.CapacityQuery); ok && q.Repair {
			out = append(out, q)
		}
	}
	return out
}

// A sequence gap in the per-agent capacity stream means a delta to this
// machine was lost: the agent must request an immediate anchor (a full
// CapacitySync) instead of silently drifting until the next master-side
// safety net.
func TestDeltaGapRequestsAnchor(t *testing.T) {
	h := newHarness(t)
	size := resource.New(1000, 2048)

	h.sendDelta(1, protocol.CapacityEntry{App: h.ep("app1"), UnitID: 1, Size: size, Count: 2})
	if n := len(h.repairQueries()); n != 0 {
		t.Fatalf("%d repair queries after an in-order delta, want 0", n)
	}
	// Seq 2 is lost; seq 3 arrives. Its own entries still apply, and a
	// repair query goes out.
	h.sendDelta(3, protocol.CapacityEntry{App: h.ep("app1"), UnitID: 2, Size: size, Count: 1})
	if got := h.agent.Capacity("app1", 2); got != 1 {
		t.Errorf("gap-carrying delta not applied: capacity = %d, want 1", got)
	}
	qs := h.repairQueries()
	if len(qs) != 1 {
		t.Fatalf("%d repair queries after a gap, want 1", len(qs))
	}
	if qs[0].Machine != h.agent.ID() {
		t.Errorf("repair query for machine %d, want %d", qs[0].Machine, h.agent.ID())
	}

	// More gaps inside the throttle window do not pile on more queries.
	h.sendDelta(7, protocol.CapacityEntry{App: h.ep("app1"), UnitID: 3, Size: size, Count: 1})
	if n := len(h.repairQueries()); n != 1 {
		t.Errorf("%d repair queries inside the throttle window, want still 1", n)
	}
	// Past the window, a fresh gap may ask again.
	h.eng.Run(h.eng.Now() + sim.Second)
	h.sendDelta(12, protocol.CapacityEntry{App: h.ep("app1"), UnitID: 4, Size: size, Count: 1})
	if n := len(h.repairQueries()); n != 2 {
		t.Errorf("%d repair queries after the window elapsed, want 2", n)
	}
}

// A CapacitySync that was overtaken by deltas sent after it (jitter
// reordering, or a duplicated sync) is a stale snapshot: replacing the table
// with it would erase the newer deltas permanently.
func TestStaleSyncDropped(t *testing.T) {
	h := newHarness(t)
	size := resource.New(1000, 2048)

	h.sendDelta(1, protocol.CapacityEntry{App: h.ep("app1"), UnitID: 1, Size: size, Count: 2})
	h.sendDelta(2, protocol.CapacityEntry{App: h.ep("app1"), UnitID: 1, Size: size, Count: 3})

	// A sync stamped seq 1 (sent before delta 2, arriving after it) must
	// not roll the ledger back to its snapshot.
	h.net.Send(protocol.MasterEndpoint, protocol.AgentEndpoint(h.agent.Machine),
		protocol.CapacitySync{
			Machine: h.agent.ID(),
			Entries: []protocol.CapacityEntry{{App: h.ep("app1"), UnitID: 1, Size: size, Count: 2}},
			Seq:     1,
		})
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	if got := h.agent.Capacity("app1", 1); got != 5 {
		t.Errorf("stale sync clobbered the ledger: capacity = %d, want 5", got)
	}

	// A fresh sync (seq beyond the stream) replaces the table, and deltas
	// it already folded in are deduplicated afterwards.
	h.net.Send(protocol.MasterEndpoint, protocol.AgentEndpoint(h.agent.Machine),
		protocol.CapacitySync{
			Machine: h.agent.ID(),
			Entries: []protocol.CapacityEntry{{App: h.ep("app1"), UnitID: 1, Size: size, Count: 4}},
			Seq:     5,
		})
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	if got := h.agent.Capacity("app1", 1); got != 4 {
		t.Errorf("fresh sync not applied: capacity = %d, want 4", got)
	}
	h.sendDelta(4, protocol.CapacityEntry{App: h.ep("app1"), UnitID: 1, Size: size, Count: 9})
	if got := h.agent.Capacity("app1", 1); got != 4 {
		t.Errorf("pre-sync delta replayed after the sync: capacity = %d, want 4", got)
	}
}
