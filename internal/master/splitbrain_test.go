package master

import (
	"testing"

	"repro/internal/lockservice"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// splitBrainPair wires two masters whose lock-service reachability the test
// controls independently — the dueling-masters scenario: the primary is
// partitioned from the lock service (and the standby) while both still reach
// the agents.
type splitBrainPair struct {
	eng            *sim.Engine
	lock           *lockservice.Service
	top            *topology.Topology
	mA, mB         *Master
	aReach, bReach bool
	lockName       string
	ttl, renew     sim.Time
}

func newSplitBrainPair(t *testing.T) *splitBrainPair {
	t.Helper()
	p := &splitBrainPair{aReach: true, bReach: true}
	p.eng = sim.NewEngine(9)
	net := transport.NewNet(p.eng)
	p.lock = lockservice.New(p.eng)
	ckpt := NewCheckpointStore()
	p.top = testTop(t, 2, 2)
	cfgA := Config{ProcessName: "fm-a"}
	cfgA.LockReachable = func() bool { return p.aReach }
	cfgB := Config{ProcessName: "fm-b"}
	cfgB.LockReachable = func() bool { return p.bReach }
	p.lockName, p.ttl, p.renew = lockName, LockTTL, renewEvery
	p.mA = NewMaster(cfgA, p.eng, net, p.lock, p.top, ckpt)
	p.mB = NewMaster(cfgB, p.eng, net, p.lock, p.top, ckpt)
	return p
}

func (p *splitBrainPair) primaries() int {
	n := 0
	if p.mA.IsPrimary() {
		n++
	}
	if p.mB.IsPrimary() {
		n++
	}
	return n
}

// TestDuelingMastersExactlyOneWins provokes split brain: the primary is cut
// off from the lock service while its standby is not, so the lease expires
// server-side and the standby promotes. Without lease-deadline self-demotion
// the old primary — which still reaches every agent — would keep scheduling
// alongside its successor; the old code had no way to stop renewing, so two
// authoritative masters coexisted for the whole partition. Exactly one must
// win, and the loser must stay deposed until it can rejoin the election.
func TestDuelingMastersExactlyOneWins(t *testing.T) {
	p := newSplitBrainPair(t)
	p.eng.Run(10 * sim.Millisecond)
	if !p.mA.IsPrimary() || p.mB.IsPrimary() {
		t.Fatalf("initial election: A=%v B=%v", p.mA.IsPrimary(), p.mB.IsPrimary())
	}

	// Partition the primary from the lock service. Agents stay reachable
	// from both masters (the transport is untouched) — the split-brain
	// shape.
	p.aReach = false
	p.eng.Run(p.eng.Now() + p.ttl + p.renew + sim.Second)

	if p.mA.IsPrimary() {
		t.Error("partitioned primary still primary past its lease deadline (split brain)")
	}
	if !p.mB.IsPrimary() {
		t.Error("standby did not take over the expired lease")
	}
	if p.primaries() != 1 {
		t.Fatalf("%d primaries after the lease expired, want exactly 1", p.primaries())
	}
	if h := p.lock.Holder(p.lockName); h != "fm-b" {
		t.Errorf("lock holder = %q, want fm-b", h)
	}
	if p.mB.Epoch() <= p.mA.Epoch() {
		t.Errorf("successor epoch %d not beyond deposed epoch %d", p.mB.Epoch(), p.mA.Epoch())
	}

	// Heal. The deposed master rejoins the election as a standby; the
	// successor keeps renewing, so there is still exactly one primary.
	p.aReach = true
	p.eng.Run(p.eng.Now() + 5*sim.Second)
	if p.primaries() != 1 || !p.mB.IsPrimary() {
		t.Errorf("after heal: A=%v B=%v, want B as the sole primary",
			p.mA.IsPrimary(), p.mB.IsPrimary())
	}

	// And the demotion path is symmetric: partition B away and A must win
	// the lease back.
	p.bReach = false
	p.eng.Run(p.eng.Now() + p.ttl + p.renew + sim.Second)
	if p.primaries() != 1 || !p.mA.IsPrimary() {
		t.Errorf("after second partition: A=%v B=%v, want A as the sole primary",
			p.mA.IsPrimary(), p.mB.IsPrimary())
	}
}

// A primary whose partition heals before the lease deadline must renew and
// keep its lease: transient unreachability below the TTL is not a failover.
func TestShortLockPartitionKeepsPrimary(t *testing.T) {
	p := newSplitBrainPair(t)
	p.eng.Run(10 * sim.Millisecond)
	if !p.mA.IsPrimary() {
		t.Fatal("A did not win the initial election")
	}
	epoch := p.mA.Epoch()

	// Unreachable for one renew period — well under the 3 s TTL.
	p.aReach = false
	p.eng.Run(p.eng.Now() + p.renew + 100*sim.Millisecond)
	p.aReach = true
	p.eng.Run(p.eng.Now() + 10*sim.Second)

	if !p.mA.IsPrimary() || p.mB.IsPrimary() {
		t.Errorf("after transient lock partition: A=%v B=%v, want A still primary",
			p.mA.IsPrimary(), p.mB.IsPrimary())
	}
	if p.mA.Epoch() != epoch {
		t.Errorf("epoch moved %d -> %d across a transient partition", epoch, p.mA.Epoch())
	}
}
