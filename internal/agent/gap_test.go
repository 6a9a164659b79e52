package agent

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
)

func (h *harness) sendDelta(seq uint64, entries ...protocol.CapacityEntry) {
	h.net.SendID(h.net.Endpoint(protocol.MasterEndpoint), h.net.Endpoint(protocol.AgentEndpoint(h.agent.Machine)),
		&protocol.CapacityDelta{Entries: entries, Seq: seq})
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
	h.net.SendID(h.net.Endpoint(protocol.MasterEndpoint), h.net.Endpoint(protocol.AgentEndpoint(h.agent.Machine)),
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
	h.net.SendID(h.net.Endpoint(protocol.MasterEndpoint), h.net.Endpoint(protocol.AgentEndpoint(h.agent.Machine)),
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

// Every primary stamps its election epoch, which starts at 1. Once the agent
// has heard one, a CapacityDelta stamped 0 is as stale as a deposed
// master's: it changes nothing and consumes no sequence number.
func TestUnstampedDeltaAfterAnEpochDropped(t *testing.T) {
	h := newHarness(t)
	size := resource.New(1000, 2048)
	delta := func(epoch int, seq uint64, count int) {
		h.net.SendID(h.net.Endpoint(protocol.MasterEndpoint), h.net.Endpoint(protocol.AgentEndpoint(h.agent.Machine)),
			&protocol.CapacityDelta{
				Entries: []protocol.CapacityEntry{{App: h.ep("app1"), UnitID: 1, Size: size, Count: count}},
				Epoch:   epoch, Seq: seq,
			})
		h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	}
	delta(1, 1, 2)
	delta(0, 2, 5)
	if got := h.agent.Capacity("app1", 1); got != 2 {
		t.Fatalf("an epoch-0 delta after epoch 1 was applied: capacity = %d, want 2", got)
	}
	delta(1, 2, 1)
	if got := h.agent.Capacity("app1", 1); got != 3 {
		t.Errorf("the epoch-1 delta after it: capacity = %d, want 3", got)
	}
	if n := len(h.repairQueries()); n != 0 {
		t.Errorf("%d repair queries: the dropped delta moved the sequence mark", n)
	}
}

// Every primary numbers an agent's capacity stream from 1, and a sync shares
// that stream with the deltas. A CapacitySync numbered 0 is behind every
// mark, so it is dropped like any stale sync and never replaces the ledger.
func TestUnsequencedSyncDropped(t *testing.T) {
	h := newHarness(t)
	size := resource.New(1000, 2048)
	h.sendDelta(1, protocol.CapacityEntry{App: h.ep("app1"), UnitID: 1, Size: size, Count: 2})
	h.net.SendID(h.net.Endpoint(protocol.MasterEndpoint), h.net.Endpoint(protocol.AgentEndpoint(h.agent.Machine)),
		protocol.CapacitySync{
			Machine: h.agent.ID(),
			Entries: []protocol.CapacityEntry{{App: h.ep("app1"), UnitID: 2, Size: size, Count: 7}},
		})
	h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	if a, b := h.agent.Capacity("app1", 1), h.agent.Capacity("app1", 2); a != 2 || b != 0 {
		t.Fatalf("a seq-0 sync replaced the ledger: capacity (unit 1, unit 2) = (%d, %d), want (2, 0)", a, b)
	}
}
