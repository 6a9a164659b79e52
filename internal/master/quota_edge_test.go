package master

import (
	"testing"

	"repro/internal/resource"
)

// TestQuotaPreemptionEdges pins the quota-preemption boundary behaviours
// that master failover stresses: a group sitting at exactly its guaranteed
// minimum, preemption fired straight out of recovery re-registration, and a
// preemption revocation racing a machine restart. Each case checks the
// accounting invariants and the settled quota guarantee after every step.
func TestQuotaPreemptionEdges(t *testing.T) {
	// One rack of two testbed machines: 24,000 CPU milli / 192 GiB total.
	newSched := func(t *testing.T, groups map[string]resource.Vector) *Scheduler {
		return NewScheduler(testTop(t, 1, 2), Options{EnablePreemption: true, Groups: groups})
	}
	revokeTotal := func(ds []Decision) int {
		n := 0
		for _, d := range ds {
			if d.Delta < 0 {
				n -= d.Delta
			}
		}
		return n
	}

	cases := []struct {
		name   string
		groups map[string]resource.Vector
		run    func(t *testing.T, s *Scheduler)
	}{
		{
			// A group holding exactly its minimum is not preemptible: quota
			// preemption only takes from groups strictly above their
			// guarantee. The requester queues instead.
			name: "group at exactly its minimum is untouchable",
			groups: map[string]resource.Vector{
				"gold":   resource.New(12_000, 96*1024),
				"bronze": resource.New(24_000, 192*1024),
			},
			run: func(t *testing.T, s *Scheduler) {
				mustRegister(t, s, "bz", "bronze", unit(1, 100, 24, 1000, 8*1024))
				if got := grantTotal(mustDemand(t, s, "bz", 1, clusterHint(24))); got != 24 {
					t.Fatalf("bronze seeded %d of 24 containers", got)
				}
				// bronze usage == bronze min exactly; the cluster is full.
				if !s.GroupUsage("bronze").Equal(s.GroupMin("bronze")) {
					t.Fatalf("bronze usage %v != its minimum %v", s.GroupUsage("bronze"), s.GroupMin("bronze"))
				}
				mustRegister(t, s, "au", "gold", unit(1, 10, 4, 1000, 8*1024))
				ds := mustDemand(t, s, "au", 1, clusterHint(4))
				if n := revokeTotal(ds); n != 0 {
					t.Errorf("preempted %d containers from a group at exactly its minimum", n)
				}
				if w := s.Waiting("au", 1); w != 4 {
					t.Errorf("gold demand should queue in full, waiting = %d", w)
				}
				// The checker must agree this is legal: no preemptible
				// victims exist, so the unmet minimum is not a violation.
				if bad := s.QuotaDeficits(); len(bad) != 0 {
					t.Errorf("QuotaDeficits flagged a legal state: %v", bad)
				}
				checkInv(t, s)
			},
		},
		{
			// A promoted master re-registers apps from hard state and
			// restores grants from agent reports; demand synced during
			// recovery may then require immediate quota preemption. The
			// restored over-quota holdings must be preemptible exactly as
			// if the master had granted them itself.
			name: "preemption during recovery re-registration",
			groups: map[string]resource.Vector{
				"gold":   resource.New(12_000, 96*1024),
				"bronze": resource.New(6_000, 48*1024),
			},
			run: func(t *testing.T, s *Scheduler) {
				// Recovery replay: register from checkpoint, restore the
				// pre-crash grants (bronze far above its effective share,
				// filling the whole cluster; gold holding nothing).
				mustRegister(t, s, "bz", "bronze", unit(1, 100, 24, 1000, 8*1024))
				mustRegister(t, s, "au", "gold", unit(1, 10, 6, 2000, 16*1024))
				for m := int32(0); m < int32(s.top.Size()); m++ {
					if !restore(s, "bz", 1, m, 12) {
						t.Fatalf("restore failed on %s", s.top.MachineName(m))
					}
				}
				checkInv(t, s)
				// Post-recovery demand sync: gold is below its minimum and
				// must claim it back through quota preemption.
				ds := mustDemand(t, s, "au", 1, clusterHint(6))
				var quotaRevokes int
				for _, d := range ds {
					if d.Delta < 0 && d.Reason == ReasonRevokeQuota {
						quotaRevokes -= d.Delta
					}
				}
				if quotaRevokes == 0 {
					t.Fatalf("no quota revocations against restored over-quota grants: %v", ds)
				}
				if got := grantTotal(ds); got != 6 {
					t.Errorf("gold granted %d of 6 after preemption", got)
				}
				if bad := s.QuotaDeficits(); len(bad) != 0 {
					t.Errorf("quota guarantee still unmet after preemption: %v", bad)
				}
				checkInv(t, s)
			},
		},
		{
			// A machine dies (revoking its grants), restarts, and the
			// freshly-recovered capacity is immediately contested by a
			// quota-preemption wave against the survivor's holdings. The
			// double-release hazard: the dead machine's grants must not be
			// released twice, and the restart must not resurrect them.
			name: "revocation racing a machine restart",
			groups: map[string]resource.Vector{
				"gold":   resource.New(16_000, 128*1024),
				"bronze": resource.New(6_000, 48*1024),
			},
			run: func(t *testing.T, s *Scheduler) {
				m0, m1 := int32(0), int32(1)
				mustRegister(t, s, "bz", "bronze", unit(1, 100, 24, 1000, 8*1024))
				if got := grantTotal(mustDemand(t, s, "bz", 1, clusterHint(24))); got != 24 {
					t.Fatalf("bronze seeded %d of 24", got)
				}
				ds := s.MachineDown(m0)
				if n := revokeTotal(ds); n != 12 {
					t.Fatalf("machine down revoked %d, want 12", n)
				}
				checkInv(t, s)
				// Restart: capacity returns; bronze's queued nothing (the
				// scheduler does not auto-restate revoked demand), so the
				// machine comes back empty.
				if ds := s.MachineUp(m0); grantTotal(ds) != 0 {
					t.Fatalf("restart granted unexpectedly: %v", ds)
				}
				checkInv(t, s)
				// Gold now demands more than the free half-cluster while
				// bronze still holds m1: the free capacity satisfies what
				// fits and preemption must target only m1 grants (live),
				// never the already-released m0 ones.
				mustRegister(t, s, "au", "gold", unit(1, 10, 16, 1000, 8*1024))
				ds = mustDemand(t, s, "au", 1, clusterHint(16))
				if got := grantTotal(ds); got != 16 {
					t.Errorf("gold granted %d of 16", got)
				}
				for _, d := range ds {
					if d.Delta < 0 && d.MachineID != m1 {
						t.Errorf("revocation on %s, want only %s (m0 grants were already released): %+v",
							d.Machine, s.top.MachineName(m1), d)
					}
				}
				if held := s.Held("bz", 1); held != 24-12-revokeTotal(ds) {
					t.Errorf("bronze holds %d, want %d", held, 24-12-revokeTotal(ds))
				}
				if bad := s.QuotaDeficits(); len(bad) != 0 {
					t.Errorf("quota deficit after settle: %v", bad)
				}
				checkInv(t, s)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newSched(t, tc.groups)) })
	}
}
