package appmaster

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
)

func (h *harness) fullSyncs() []protocol.FullDemandSync {
	var out []protocol.FullDemandSync
	for _, m := range h.toMaster {
		if fs, ok := m.(protocol.FullDemandSync); ok {
			out = append(out, fs)
		}
	}
	return out
}

// syncHeld reads one (unit, machine) count out of a recorded full sync.
func syncHeld(fs protocol.FullDemandSync, unitID int, machine int32) int {
	for _, h := range fs.Held {
		if h.UnitID == unitID && h.Machine == machine {
			return h.Count
		}
	}
	return 0
}

// A gap in the per-app grant stream means an update to THIS app was lost:
// the app must push its full picture immediately instead of drifting until
// the periodic safety sync.
func TestGrantGapTriggersEarlySync(t *testing.T) {
	h := newHarness(t, 0) // periodic sync disabled: any sync seen is gap-driven
	h.am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 10})

	h.grant("r000m000", 2, 1)
	if n := len(h.fullSyncs()); n != 0 {
		t.Fatalf("%d full syncs after an in-order grant, want 0", n)
	}

	// Seq 2 is lost; seq 3 arrives. Its changes still apply, and a full sync
	// goes out with the ledger already including them.
	h.grant("r001m000", 3, 3)
	if h.am.Held(1, h.top.MachineID("r001m000")) != 3 {
		t.Errorf("gap-carrying grant not applied: held = %d, want 3", h.am.Held(1, h.top.MachineID("r001m000")))
	}
	syncs := h.fullSyncs()
	if len(syncs) != 1 {
		t.Fatalf("%d full syncs after a gap, want 1", len(syncs))
	}
	if got := syncHeld(syncs[0], 1, h.top.MachineID("r001m000")); got != 3 {
		t.Errorf("sync snapshot held = %d, want 3 (must include the carried grant)", got)
	}

	// Another gap inside the throttle window does not pile on a second sync.
	h.grant("r000m001", 1, 5)
	if n := len(h.fullSyncs()); n != 1 {
		t.Errorf("%d full syncs inside the throttle window, want still 1", n)
	}
	// Past the window, a fresh gap may sync again.
	h.eng.Run(h.eng.Now() + sim.Second)
	h.grant("r001m001", 1, 8)
	if n := len(h.fullSyncs()); n != 2 {
		t.Errorf("%d full syncs after the window elapsed, want 2", n)
	}
}

// The unregister retry must back off: fixed-period re-sends from thousands
// of terminating apps arrive at a recovering master in lockstep.
func TestUnregisterBackoff(t *testing.T) {
	h := newHarness(t, 0)
	h.am.Unregister()
	h.toMaster = nil

	var at []sim.Time
	prev := len(h.toMaster)
	for h.eng.Now() < 60*sim.Second {
		h.eng.Run(h.eng.Now() + 100*sim.Millisecond)
		for _, m := range h.toMaster[prev:] {
			if _, ok := m.(protocol.UnregisterApp); ok {
				at = append(at, h.eng.Now())
			}
		}
		prev = len(h.toMaster)
	}
	if len(at) < 5 {
		t.Fatalf("only %d retries in 60s, want >= 5", len(at))
	}
	gap0 := at[1] - at[0]
	gap1 := at[2] - at[1]
	if gap1 <= gap0 {
		t.Errorf("retry gaps not growing: %v then %v", gap0, gap1)
	}
	// Every gap stays within [base, cap + 25% jitter + poll slop].
	for i := 1; i < len(at); i++ {
		g := at[i] - at[i-1]
		if g < unregRetry || g > unregRetryCap+unregRetryCap/4+200*sim.Millisecond {
			t.Errorf("retry gap %d = %v outside [%v, ~%v]", i, g, unregRetry, unregRetryCap+unregRetryCap/4)
		}
	}
}

// Every primary stamps its election epoch, which starts at 1. Once the
// application master has heard one, a GrantUpdate stamped 0 is as stale as a
// deposed master's: no grant is booked and no sequence number is consumed.
func TestUnstampedGrantAfterAnEpochDropped(t *testing.T) {
	h := newHarness(t, 0)
	h.am.Request(1, resource.LocalityHint{Type: resource.LocalityCluster, Count: 10})
	grant := func(machine string, epoch int, seq uint64) {
		h.net.SendID(h.net.Endpoint(protocol.MasterEndpoint), h.net.Endpoint("app1"), &protocol.GrantUpdate{
			App:     "app1",
			Changes: []protocol.UnitDelta{{UnitID: 1, Machine: h.top.MachineID(machine), Delta: 2}},
			Epoch:   epoch, Seq: seq,
		})
		h.eng.Run(h.eng.Now() + 10*sim.Millisecond)
	}
	grant("r000m000", 1, 1)
	grant("r001m000", 0, 2)
	if held := h.am.Held(1, h.top.MachineID("r001m000")); held != 0 || len(h.grants) != 1 {
		t.Fatalf("an epoch-0 grant after epoch 1 was booked: held %d, grant callbacks %v", held, h.grants)
	}
	grant("r001m001", 1, 2)
	if held := h.am.Held(1, h.top.MachineID("r001m001")); held != 2 {
		t.Errorf("the epoch-1 grant after it: held %d, want 2", held)
	}
	if n := len(h.fullSyncs()); n != 0 {
		t.Errorf("%d full syncs: the dropped grant moved the sequence mark", n)
	}
}
