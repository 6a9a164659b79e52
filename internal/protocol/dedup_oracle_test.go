package protocol

import (
	"math/rand"
	"testing"
)

// mapDedup is the fixed-channel half of Dedup as it was before the marks
// moved out of a hash map: one map[chanKey]uint64 for every receiver. It is
// kept as the reference the differential test below drives the shipped Dedup
// against.
type chanKey struct {
	sender int32
	ch     Chan
}

type mapDedup struct {
	lastCh map[chanKey]uint64
	gaps   uint64
}

func (d *mapDedup) ObserveCh(sender int32, ch Chan, seq uint64) Verdict {
	k := chanKey{sender, ch}
	last := d.lastCh[k]
	switch {
	case seq <= last:
		return Duplicate
	case seq == last+1:
		if d.lastCh == nil {
			d.lastCh = make(map[chanKey]uint64)
		}
		d.lastCh[k] = seq
		return Accept
	default:
		if d.lastCh == nil {
			d.lastCh = make(map[chanKey]uint64)
		}
		d.lastCh[k] = seq
		d.gaps++
		return Gap
	}
}

func (d *mapDedup) ResetCh(sender int32, ch Chan) { delete(d.lastCh, chanKey{sender, ch}) }

func (d *mapDedup) ResetToCh(sender int32, ch Chan, seq uint64) {
	if d.lastCh == nil {
		d.lastCh = make(map[chanKey]uint64)
	}
	d.lastCh[chanKey{sender, ch}] = seq
}

func (d *mapDedup) LastCh(sender int32, ch Chan) uint64 { return d.lastCh[chanKey{sender, ch}] }

// staleCh is EpochGate.StaleCh over the reference tracker.
func (d *mapDedup) staleCh(g *EpochGate, epoch int, sender int32, ch Chan) bool {
	if epoch < g.epoch {
		return true
	}
	if epoch > g.epoch {
		g.epoch = epoch
		d.ResetCh(sender, ch)
	}
	return false
}

// TestDedupMatchesMapOracle drives the shipped Dedup and the map-based one it
// replaced with the same seeded stream — in-order numbers, duplicates, gaps,
// resets, re-baselines, epoch bumps, process restarts — for the two receiver
// shapes: a leaf that only ever hears one (sender, channel) stream, and a hub
// that hears many senders on every channel. Every verdict, mark and gap count
// must agree at every step.
func TestDedupMatchesMapOracle(t *testing.T) {
	shapes := []struct {
		name    string
		senders int32
		chans   int
	}{
		{"leaf", 1, 1},
		{"leaf-late-second-stream", 2, 2},
		{"hub", 300, int(numChans)},
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var got Dedup
			var want mapDedup
			var gGot, gWant EpochGate
			next := map[chanKey]uint64{} // what a well-behaved sender would send next
			epoch := 0
			for op := 0; op < 30000; op++ {
				sender := int32(5000 + rng.Intn(int(sh.senders))) // endpoint IDs do not start at 0
				if sh.name == "leaf-late-second-stream" && op < 1000 {
					sender = 5000
				}
				k := chanKey{sender, Chan(rng.Intn(sh.chans))}
				switch r := rng.Intn(100); {
				case r < 70: // the stream as sent, with the wire's faults
					seq := next[k] + 1
					switch rng.Intn(10) {
					case 0:
						seq += uint64(1 + rng.Intn(3)) // lost messages
					case 1:
						if seq > 1 {
							seq -= uint64(1 + rng.Intn(int(min(seq-1, 3)))) // duplicate / late
						}
					case 2:
						seq = 0 // unsequenced injection
					}
					if seq > next[k] {
						next[k] = seq
					}
					if a, b := got.ObserveCh(k.sender, k.ch, seq), want.ObserveCh(k.sender, k.ch, seq); a != b {
						t.Fatalf("%s seed %d op %d: ObserveCh(%v, %d) = %v, oracle %v", sh.name, seed, op, k, seq, a, b)
					}
				case r < 78:
					got.ResetCh(k.sender, k.ch)
					want.ResetCh(k.sender, k.ch)
					next[k] = 0
				case r < 86:
					seq := uint64(rng.Intn(50))
					got.ResetToCh(k.sender, k.ch, seq)
					want.ResetToCh(k.sender, k.ch, seq)
					next[k] = seq
				case r < 94: // an epoch-stamped message: stale, current or a promotion
					e := epoch + rng.Intn(3) - 1
					if e > epoch {
						epoch = e
						next[k] = 0
					}
					if a, b := gGot.StaleCh(e, &got, k.sender, k.ch), want.staleCh(&gWant, e, k.sender, k.ch); a != b {
						t.Fatalf("%s seed %d op %d: StaleCh(%d) = %v, oracle %v", sh.name, seed, op, e, a, b)
					}
				case r < 95: // the receiving process restarts with empty state
					got, want = Dedup{}, mapDedup{}
					clear(next)
				}
				if a, b := got.LastCh(k.sender, k.ch), want.LastCh(k.sender, k.ch); a != b {
					t.Fatalf("%s seed %d op %d: LastCh(%v) = %d, oracle %d", sh.name, seed, op, k, a, b)
				}
				if got.Gaps() != want.gaps {
					t.Fatalf("%s seed %d op %d: Gaps = %d, oracle %d", sh.name, seed, op, got.Gaps(), want.gaps)
				}
			}
			if sh.senders == 1 && got.many != nil {
				t.Errorf("%s: a single-stream receiver built the by-sender table", sh.name)
			}
		}
	}
}

func TestObserveChAllocatesNothing(t *testing.T) {
	var leaf, hub Dedup
	for s := int32(0); s < 64; s++ {
		hub.ObserveCh(s, ChanDem, 1)
	}
	seq := uint64(1)
	if n := testing.AllocsPerRun(1000, func() {
		seq++
		leaf.ObserveCh(7, ChanCap, seq)
		hub.ObserveCh(int32(seq%64), ChanDem, seq)
	}); n != 0 {
		t.Fatalf("ObserveCh allocates %v times per call on a warmed tracker", n)
	}
}

// padded is a tracker inside a process: an agent is not 56 bytes, and the pad
// keeps neighbouring trackers off each other's cache lines.
type padded[T any] struct {
	d   T
	pad [1024]byte
}

// BenchmarkDedupObserveCh measures one observation in churn's two shapes: the
// 5,000 agents each hearing the master's capacity stream (rotating over all of
// them, so every call lands on a tracker the cache has not seen for 4,999
// calls), and the master hearing 2,500 application masters. The map-oracle
// runs are the tracker this one replaced.
func BenchmarkDedupObserveCh(b *testing.B) {
	const agents, apps = 5000, 2500
	type observer interface {
		ObserveCh(sender int32, ch Chan, seq uint64) Verdict
	}
	leaves := func(b *testing.B, at func(i int) observer) {
		for i := 0; i < b.N; i++ {
			at(i%agents).ObserveCh(5001, ChanCap, uint64(i/agents)+1)
		}
	}
	hub := func(b *testing.B, d observer) {
		for i := 0; i < b.N; i++ {
			d.ObserveCh(int32(5003+i%apps), ChanDem, uint64(i/apps)+1)
		}
	}
	b.Run("agents/slot", func(b *testing.B) {
		procs := make([]padded[Dedup], agents)
		b.ResetTimer()
		leaves(b, func(i int) observer { return &procs[i].d })
	})
	b.Run("agents/map-oracle", func(b *testing.B) {
		procs := make([]padded[mapDedup], agents)
		b.ResetTimer()
		leaves(b, func(i int) observer { return &procs[i].d })
	})
	b.Run("master/by-sender", func(b *testing.B) { hub(b, &Dedup{}) })
	b.Run("master/map-oracle", func(b *testing.B) { hub(b, &mapDedup{}) })
}
