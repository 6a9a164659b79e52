package protocol

import (
	"math"
	"testing"

	"repro/internal/ident"
)

// dedupScript turns fuzz bytes into a receiver's traffic: a cursor that
// reads zeros once the bytes run out.
type dedupScript struct{ b []byte }

func (s *dedupScript) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

// seq is a sequence number relative to a stream's mark: the next one, a
// repeat, a gap, a late one, unsequenced, or one at the top of the range.
func (s *dedupScript) seq(last uint64) uint64 {
	c := s.next()
	k := uint64(c >> 3)
	switch c % 8 {
	case 0, 1:
		return last + 1
	case 2:
		return last
	case 3:
		return last + 2 + k
	case 4:
		return last - min(last, k+1)
	case 5:
		return 0
	case 6:
		return math.MaxUint64 - k
	}
	return uint64(s.next())
}

// epoch is a master election epoch: stale, current, newer, zero or negative.
func (s *dedupScript) epoch(current int) int {
	switch c := s.next(); c % 4 {
	case 0:
		return current
	case 1:
		return current + 1 + int(c>>2)%3
	case 2:
		return current - 1 - int(c>>2)%3
	}
	return int(int8(s.next()))
}

// FuzzDedupSequence drives the shipped Dedup and the map-based mapDedup it
// replaced through one byte-scripted sequence of ObserveCh, ResetCh,
// ResetToCh, LastCh and EpochGate.StaleCh calls — senders in slots −1…63 on
// all six channels, so a script can start as a leaf (one inline stream),
// become a hub (the by-sender table) and address transport.None — plus
// restarts of the receiving process and retirements of a sender: the
// transport forgets the sender for good and hands its slot to a new sender
// under the next generation, which starts with no marks. A negative sender
// never has a mark: ObserveCh calls it a duplicate, LastCh reads 0 and
// ResetToCh does nothing, which is the one rule the oracle is wrapped in.
// After every step the verdicts must agree, every current (sender, channel)
// mark must read the same, and so must the gap count.
func FuzzDedupSequence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 6, 1, 0, 0, 6, 1, 0, 0, 6, 1, 3, 0, 7, 1, 0, 4, 6, 1, 9, 3, 6, 1, 2, 40})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 2, 0, 5, 2, 0, 1, 0, 0, 1, 0, 0, 7})
	f.Add([]byte{0, 10, 5, 0, 4, 10, 5, 1, 0, 20, 3, 0, 5, 64, 0, 0, 2, 64, 0, 6, 0, 10, 5, 3})
	// A hub hears two senders; one retires and its slot's next sender starts
	// its stream at 1, which must be fresh, not a duplicate.
	f.Add([]byte{0, 3, 1, 0, 0, 4, 1, 0, 0, 3, 1, 0, 6, 3, 1, 0, 3, 1, 0, 3, 3, 1, 0, 4, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &dedupScript{b: data}
		var got Dedup
		var want mapDedup
		var gGot, gWant EpochGate
		var gens [64]uint32 // by slot: the generation of its current sender
		current := func(slot int32) int32 {
			if slot < 0 {
				return slot
			}
			return ident.Tag(slot, gens[slot])
		}
		for step := 0; len(s.b) > 0 && step < 256; step++ {
			op := s.next() % 7
			slot := int32(s.next()%65) - 1
			sender := current(slot)
			ch := Chan(s.next() % byte(numChans))
			switch op {
			case 0:
				seq := s.seq(got.LastCh(sender, ch))
				w := Duplicate
				if sender >= 0 {
					w = want.ObserveCh(sender, ch, seq)
				}
				if v := got.ObserveCh(sender, ch, seq); v != w {
					t.Fatalf("step %d: ObserveCh(%d, %d, %d) = %v, oracle %v", step, sender, ch, seq, v, w)
				}
			case 1:
				got.ResetCh(sender, ch)
				want.ResetCh(sender, ch)
			case 2:
				seq := s.seq(got.LastCh(sender, ch))
				got.ResetToCh(sender, ch, seq)
				if sender >= 0 {
					want.ResetToCh(sender, ch, seq)
				}
			case 3:
				if a, b := got.LastCh(sender, ch), want.LastCh(sender, ch); a != b {
					t.Fatalf("step %d: LastCh(%d, %d) = %d, oracle %d", step, sender, ch, a, b)
				}
			case 4:
				e := s.epoch(gGot.Current())
				if a, b := gGot.StaleCh(e, &got, sender, ch), want.staleCh(&gWant, e, sender, ch); a != b {
					t.Fatalf("step %d: StaleCh(%d, %d, %d) = %v, oracle %v", step, e, sender, ch, a, b)
				}
			case 5: // the receiving process restarts with empty state
				got, want = Dedup{}, mapDedup{}
				gGot, gWant = EpochGate{}, EpochGate{}
			default: // the sender retires; its slot goes to a new sender
				if slot >= 0 {
					gens[slot]++
				}
			}
			for slot := int32(-1); slot < 64; slot++ {
				snd := current(slot)
				for c := Chan(0); c < numChans; c++ {
					if a, b := got.LastCh(snd, c), want.LastCh(snd, c); a != b {
						t.Fatalf("step %d (op %d): LastCh(%d, %d) = %d, oracle %d", step, op, snd, c, a, b)
					}
				}
			}
			if got.Gaps() != want.gaps {
				t.Fatalf("step %d (op %d): Gaps = %d, oracle %d", step, op, got.Gaps(), want.gaps)
			}
		}
	})
}
