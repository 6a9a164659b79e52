package master

import (
	"testing"

	"repro/internal/resource"
)

// schedVariants runs a subtest against both tree implementations wired into
// a real scheduler, so the edge cases below also act as behavioral parity
// checks for the indexed tree.
func schedVariants(t *testing.T, fn func(t *testing.T, legacy bool)) {
	t.Run("indexed", func(t *testing.T) { fn(t, false) })
	t.Run("legacy", func(t *testing.T) { fn(t, true) })
}

// TestWaitingByLevelAcrossMachineDownUp: queued per-level demand must
// survive a machine's death (the queue entry stays; only grants are
// revoked) and drain correctly when the machine returns.
func TestWaitingByLevelAcrossMachineDownUp(t *testing.T) {
	schedVariants(t, func(t *testing.T, legacy bool) {
		top := testTop(t, 2, 2) // r000m000..r001m001, 12000/98304 each
		s := newTestScheduler(top, Options{}, legacy)
		mustRegister(t, s, "app", "", unit(1, 1, 100, 6000, 8192))
		mustRegister(t, s, "filler", "", unit(1, 1, 100, 6000, 8192))

		// Fill r000m000 completely, then queue machine- and rack-level
		// demand against it.
		mustDemand(t, s, "filler", 1, resource.LocalityHint{Type: resource.LocalityMachine, Node: 0, Count: 2})
		mustDemand(t, s, "app", 1,
			resource.LocalityHint{Type: resource.LocalityMachine, Node: 0, Count: 2},
			resource.LocalityHint{Type: resource.LocalityRack, Node: 0, Count: 2},
			clusterHint(1),
		)
		// The rack and cluster portions fit on r000m001 and elsewhere; the
		// machine-pinned portion waits.
		if m, _, _ := s.WaitingByLevel("app", 1); m != 2 {
			t.Fatalf("machine-level waiting = %d, want 2", m)
		}
		checkInv(t, s)

		ds := s.MachineDown(top.MachineID("r000m000"))
		for _, d := range ds {
			if d.Delta >= 0 {
				t.Fatalf("machine down must only revoke, got %+v", d)
			}
		}
		// Demand pinned to the dead machine keeps waiting — the paper's
		// protocol makes the app re-request elsewhere if it wants to move.
		if m, _, _ := s.WaitingByLevel("app", 1); m != 2 {
			t.Fatalf("machine-level waiting after down = %d, want 2", m)
		}
		checkInv(t, s)

		// The machine comes back: its full capacity is free again and the
		// pinned demand must be granted ahead of nothing else waiting.
		ds = s.MachineUp(top.MachineID("r000m000"))
		got := 0
		for _, d := range ds {
			if d.Machine != "r000m000" || d.Delta <= 0 {
				t.Fatalf("unexpected decision %+v", d)
			}
			got += d.Delta
		}
		if got != 2 {
			t.Fatalf("granted %d on recovered machine, want 2", got)
		}
		if m, _, _ := s.WaitingByLevel("app", 1); m != 0 {
			t.Fatalf("machine-level waiting after up = %d, want 0", m)
		}
		checkInv(t, s)
	})
}

// TestBlacklistedMachineExcludedFromAssignment: a blacklisted machine's
// capacity must be invisible to both the immediate-placement path and the
// free-up assignment path, and usable again once cleared.
func TestBlacklistedMachineExcludedFromAssignment(t *testing.T) {
	schedVariants(t, func(t *testing.T, legacy bool) {
		top := testTop(t, 1, 2)
		s := newTestScheduler(top, Options{}, legacy)
		mustRegister(t, s, "app", "", unit(1, 1, 100, 6000, 8192))

		if ds := s.SetBlacklisted(top.MachineID("r000m000"), true); len(ds) != 0 {
			t.Fatalf("blacklisting an idle machine emitted %v", ds)
		}
		// Machine-pinned demand on the blacklisted machine must queue, not
		// grant.
		ds := mustDemand(t, s, "app", 1, resource.LocalityHint{Type: resource.LocalityMachine, Node: 0, Count: 1})
		if len(ds) != 0 {
			t.Fatalf("granted on blacklisted machine: %v", ds)
		}
		if m, _, _ := s.WaitingByLevel("app", 1); m != 1 {
			t.Fatalf("waiting = %d, want 1", m)
		}
		// Cluster-level demand must flow to the other machine only.
		ds = mustDemand(t, s, "app", 1, clusterHint(4))
		for _, d := range ds {
			if d.Machine == "r000m000" {
				t.Fatalf("cluster placement used blacklisted machine: %+v", d)
			}
		}
		if grantTotal(ds) != 2 { // r000m001 fits two 6000/8192 units
			t.Fatalf("granted %d, want 2", grantTotal(ds))
		}
		checkInv(t, s)

		// Clearing the blacklist triggers assignment on the machine: the
		// pinned waiter and the queued cluster remainder both land there.
		ds = s.SetBlacklisted(top.MachineID("r000m000"), false)
		for _, d := range ds {
			if d.Machine != "r000m000" || d.Delta <= 0 {
				t.Fatalf("unexpected decision %+v", d)
			}
		}
		if grantTotal(ds) != 2 {
			t.Fatalf("granted %d after clearing, want 2", grantTotal(ds))
		}
		if m, _, c := s.WaitingByLevel("app", 1); m != 0 || c != 1 {
			t.Fatalf("waiting after clear = %d/%d, want 0 machine, 1 cluster", m, c)
		}
		checkInv(t, s)
	})
}

// TestBlacklistKeepsRunningGrants: blacklisting a machine revokes nothing
// (its running work stays, paper §4.3.2's graylisting), and the capacity
// its grants leave free is not reused while the mark stands.
func TestBlacklistKeepsRunningGrants(t *testing.T) {
	schedVariants(t, func(t *testing.T, legacy bool) {
		top := testTop(t, 1, 2)
		s := newTestScheduler(top, Options{}, legacy)
		mustRegister(t, s, "app", "", unit(1, 1, 100, 6000, 8192))
		mustDemand(t, s, "app", 1, resource.LocalityHint{Type: resource.LocalityMachine, Node: 0, Count: 1})

		if ds := s.SetBlacklisted(top.MachineID("r000m000"), true); len(ds) != 0 {
			t.Fatalf("blacklisting decided %v, want nothing", ds)
		}
		if held := s.Held("app", 1); held != 1 {
			t.Fatalf("held %d after blacklisting, want the running 1", held)
		}
		// Demand re-raised for the machine must wait despite free capacity.
		ds := mustDemand(t, s, "app", 1, resource.LocalityHint{Type: resource.LocalityMachine, Node: 0, Count: 1})
		if len(ds) != 0 {
			t.Fatalf("granted on a blacklisted machine: %v", ds)
		}
		checkInv(t, s)
	})
}
