package gateway

import (
	"testing"

	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/transport"
)

// The admit retry must back off per job: a fixed-period sweep re-sends the
// whole unacked set in lockstep, and a long interregnum turns that into a
// synchronized storm against the recovering primary.
func TestAdmitRetryBackoff(t *testing.T) {
	f := newFixture(t, DefaultLimits())
	f.master.crash()

	// Watch the master endpoint without acking, so the admit stays
	// outstanding and every re-send is visible with its arrival time.
	var at []sim.Time
	observe := func(_ transport.EndpointID, m transport.Message) {
		if _, ok := m.(*protocol.JobAdmit); ok {
			at = append(at, f.eng.Now())
		}
	}
	f.net.Register(protocol.MasterEndpoint, observe)
	f.gw.Submit(Job{ID: "j0", Tenant: "t0", Class: ClassService})
	f.run(20 * sim.Second)

	if len(at) < 5 {
		t.Fatalf("only %d sends in 20s, want >= 5", len(at))
	}
	// Early gaps grow; every gap stays within [base, cap + 25% jitter +
	// sweep-period slop].
	gap0, gap1 := at[2]-at[1], at[3]-at[2]
	if gap1 <= gap0 {
		t.Errorf("retry gaps not growing: %v then %v", gap0, gap1)
	}
	capD := admitBackoffCap * retryEvery
	for i := 1; i < len(at); i++ {
		g := at[i] - at[i-1]
		if g < retryEvery || g > capD+capD/4+retryEvery {
			t.Errorf("retry gap %d = %v outside [%v, ~%v]", i, g, retryEvery, capD+capD/4)
		}
	}

	// A promotion hello replays immediately, off-schedule, and restarts the
	// backoff from the base.
	before := len(at)
	f.master.promote(2) // re-registers the acking stub over the observer
	f.net.Register(protocol.MasterEndpoint, observe)
	f.run(50 * sim.Millisecond)
	if len(at) <= before {
		t.Error("promotion hello did not replay the outstanding admit")
	}
	if st := f.gw.Snapshot(); st.FailoverReplays == 0 {
		t.Error("replay not counted")
	}
}

// Two jobs admitted at the same instant must not re-send at the same
// instants forever: the per-job jitter desynchronizes them.
func TestAdmitRetryJitterDesyncs(t *testing.T) {
	f := newFixture(t, DefaultLimits())
	f.master.crash()

	sendsBy := map[string][]sim.Time{}
	f.net.Register(protocol.MasterEndpoint, func(_ transport.EndpointID, m transport.Message) {
		if a, ok := m.(*protocol.JobAdmit); ok {
			sendsBy[a.JobID] = append(sendsBy[a.JobID], f.eng.Now())
		}
	})
	f.gw.Submit(Job{ID: "j0", Tenant: "t0", Class: ClassService})
	f.gw.Submit(Job{ID: "j1", Tenant: "t1", Class: ClassService})
	f.run(30 * sim.Second)

	a, b := sendsBy["j0"], sendsBy["j1"]
	if len(a) < 4 || len(b) < 4 {
		t.Fatalf("sends: j0=%d j1=%d, want >= 4 each", len(a), len(b))
	}
	// Beyond the first (shared) admit instant, at least one re-send instant
	// must differ between the two jobs.
	n := min(len(a), len(b))
	same := true
	for i := 1; i < n; i++ {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("both jobs re-sent at identical instants throughout: jitter ineffective")
	}
}
