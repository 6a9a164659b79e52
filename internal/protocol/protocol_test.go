package protocol

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/resource"
)

func TestSequencerMonotone(t *testing.T) {
	var s Sequencer
	if s.Current() != 0 {
		t.Errorf("initial Current = %d", s.Current())
	}
	prev := uint64(0)
	for i := 0; i < 100; i++ {
		n := s.Next()
		if n != prev+1 {
			t.Fatalf("Next = %d after %d", n, prev)
		}
		prev = n
	}
	if s.Current() != 100 {
		t.Errorf("Current = %d, want 100", s.Current())
	}
}

func TestDedupInOrder(t *testing.T) {
	d := &Dedup{}
	for i := uint64(1); i <= 5; i++ {
		if v := d.Observe("a", i); v != Accept {
			t.Fatalf("seq %d: verdict %v, want Accept", i, v)
		}
	}
	if d.Gaps() != 0 {
		t.Errorf("gaps = %d", d.Gaps())
	}
}

func TestDedupDuplicates(t *testing.T) {
	d := &Dedup{}
	d.Observe("a", 1)
	d.Observe("a", 2)
	if v := d.Observe("a", 2); v != Duplicate {
		t.Errorf("replay verdict = %v", v)
	}
	if v := d.Observe("a", 1); v != Duplicate {
		t.Errorf("old replay verdict = %v", v)
	}
	if v := d.Observe("a", 3); v != Accept {
		t.Errorf("next after replays = %v", v)
	}
}

func TestDedupGap(t *testing.T) {
	d := &Dedup{}
	d.Observe("a", 1)
	if v := d.Observe("a", 5); v != Gap {
		t.Errorf("gap verdict = %v", v)
	}
	if d.Gaps() != 1 {
		t.Errorf("gaps = %d", d.Gaps())
	}
	// 2..4 arrive late: they're now duplicates (already superseded).
	if v := d.Observe("a", 3); v != Duplicate {
		t.Errorf("late verdict = %v", v)
	}
	if v := d.Observe("a", 6); v != Accept {
		t.Errorf("resume verdict = %v", v)
	}
}

func TestDedupSendersIndependent(t *testing.T) {
	d := &Dedup{}
	d.Observe("a", 1)
	if v := d.Observe("b", 1); v != Accept {
		t.Errorf("other sender verdict = %v", v)
	}
}

func TestDedupReset(t *testing.T) {
	d := &Dedup{}
	d.ObserveCh(7, ChanCap, 10)
	d.ResetCh(7, ChanCap)
	if v := d.ObserveCh(7, ChanCap, 1); v != Accept {
		t.Errorf("after reset verdict = %v", v)
	}
	d.ResetToCh(7, ChanCap, 50)
	if v := d.ObserveCh(7, ChanCap, 50); v != Duplicate {
		t.Errorf("at mark = %v", v)
	}
	if v := d.ObserveCh(7, ChanCap, 51); v != Accept {
		t.Errorf("past mark = %v", v)
	}
}

func TestPropDedupExactlyOnce(t *testing.T) {
	// Any shuffled, duplicated delivery of 1..n yields exactly n-k Accepts
	// + Gaps combined never more than n, and never accepts the same seq
	// twice.
	f := func(perm []uint8) bool {
		d := &Dedup{}
		applied := map[uint64]bool{}
		for _, p := range perm {
			seq := uint64(p%32) + 1
			v := d.Observe("s", seq)
			if v == Accept || v == Gap {
				if applied[seq] {
					return false // double-apply
				}
				applied[seq] = true
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWorkerStateString(t *testing.T) {
	cases := map[WorkerState]string{
		WorkerStarting: "starting",
		WorkerRunning:  "running",
		WorkerFinished: "finished",
		WorkerFailed:   "failed",
		WorkerState(9): "unknown",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

func TestWireSizesPositiveAndProportional(t *testing.T) {
	small := DemandUpdate{App: "a", Deltas: []UnitHint{{}}}
	big := DemandUpdate{App: "a", Deltas: make([]UnitHint, 100)}
	if small.WireSize() <= 0 {
		t.Error("non-positive wire size")
	}
	if big.WireSize() <= small.WireSize() {
		t.Error("wire size not proportional to payload")
	}
	// A return costs what a (unit, machine, count) entry does anywhere else.
	withRet := DemandUpdate{App: "a", Returns: []ReturnEntry{{UnitID: 1, Count: 1}}, Deltas: []UnitHint{{}}}
	if got, want := withRet.WireSize(), small.WireSize()+perEntryBytes; got != want {
		t.Errorf("update with one return: wire size %d, want %d", got, want)
	}

	full := FullDemandSync{
		App:    "a",
		Units:  []resource.ScheduleUnit{{ID: 1}},
		Demand: make([]UnitHint, 10),
		Held:   []SyncHeld{{UnitID: 1, Machine: 0, Count: 2}, {UnitID: 1, Machine: 1, Count: 3}},
	}
	if full.WireSize() <= small.WireSize() {
		t.Error("full sync should outweigh a small delta")
	}
	// The flat shape costs on the wire what the nested maps did: a header,
	// the app, 48 bytes a unit, 24 a hint and 16 a held entry.
	if got, want := full.WireSize(), headerBytes+1+unitBytes+10*hintBytes+2*perEntryBytes; got != want {
		t.Errorf("full sync wire size %d, want %d", got, want)
	}

	msgs := []interface{ WireSize() int }{
		RegisterApp{App: "a"},
		GrantUpdate{App: "a", Changes: []UnitDelta{{UnitID: 1, Machine: 0, Delta: 1}}},
		AgentHeartbeat{Machine: 0, Allocations: []AllocDelta{{App: 3, UnitID: 1, Count: 2}}},
		CapacityDelta{Entries: []CapacityEntry{{App: 3, UnitID: 1, Count: 1}}},
		WorkPlan{App: "a", WorkerID: "w"},
		WorkerStatus{App: "a", WorkerID: "w"},
	}
	for i, m := range msgs {
		if m.WireSize() <= 0 {
			t.Errorf("msg %d: non-positive wire size", i)
		}
	}
}

// TestFullDemandSyncWellFormed pins what a receiver may merge by: demand
// strictly ascending by (unit, level, node), held entries strictly ascending
// by (unit, machine), no negative count.
func TestFullDemandSyncWellFormed(t *testing.T) {
	hint := func(unit, count int) UnitHint {
		return UnitHint{UnitID: unit, LocalityHint: resource.LocalityHint{Type: resource.LocalityCluster, Count: count}}
	}
	at := func(unit int, level resource.LocalityType, node int32) UnitHint {
		return UnitHint{UnitID: unit, LocalityHint: resource.LocalityHint{Type: level, Node: node, Count: 1}}
	}
	m, r := resource.LocalityMachine, resource.LocalityRack
	for _, c := range []struct {
		name   string
		demand []UnitHint
		held   []SyncHeld
		ok     bool
	}{
		{"empty", nil, nil, true},
		{"sorted", []UnitHint{at(1, m, 2), at(1, m, 5), at(1, r, 0), hint(1, 0), hint(3, 1)},
			[]SyncHeld{{1, 0, 2}, {1, 4, 1}, {2, 0, 3}}, true},
		{"demand runs out of order", []UnitHint{hint(3, 1), hint(1, 2)}, nil, false},
		{"nodes out of order", []UnitHint{at(1, m, 5), at(1, m, 2)}, nil, false},
		{"levels out of order", []UnitHint{at(1, r, 0), at(1, m, 2)}, nil, false},
		{"a target twice", []UnitHint{hint(1, 2), hint(1, 0)}, nil, false},
		{"negative demand", []UnitHint{hint(1, -1)}, nil, false},
		{"held units out of order", nil, []SyncHeld{{2, 0, 1}, {1, 5, 1}}, false},
		{"held machines out of order", nil, []SyncHeld{{1, 5, 1}, {1, 0, 1}}, false},
		{"duplicate held pair", nil, []SyncHeld{{1, 5, 1}, {1, 5, 2}}, false},
		{"negative held", nil, []SyncHeld{{1, 5, -1}}, false},
	} {
		s := FullDemandSync{Demand: c.demand, Held: c.held}
		if got := s.WellFormed(); got != c.ok {
			t.Errorf("%s: WellFormed = %v, want %v", c.name, got, c.ok)
		}
	}
}

// TestFullDemandSyncRecycles: Clear leaves nothing of the last use readable
// but keeps both payloads' capacity, and Keep's copy outlives the Clear.
func TestFullDemandSyncRecycles(t *testing.T) {
	s := &FullDemandSync{
		App: "a", Units: []resource.ScheduleUnit{{ID: 1}}, SeenGrantSeq: 3, Seq: 9,
		Demand: []UnitHint{{UnitID: 1, LocalityHint: resource.LocalityHint{Type: resource.LocalityMachine, Node: 5, Count: 2}}},
		Held:   []SyncHeld{{UnitID: 1, Machine: 4, Count: 2}},
	}
	kept := Keep(s).(FullDemandSync)
	demand, held := s.Demand[:1], s.Held[:1]
	s.Clear()
	if s.App != "" || s.Units != nil || s.Seq != 0 || s.SeenGrantSeq != 0 || len(s.Demand) != 0 || len(s.Held) != 0 {
		t.Errorf("cleared sync still carries %+v", *s)
	}
	if cap(s.Demand) == 0 || cap(s.Held) == 0 {
		t.Error("Clear dropped the payloads' capacity")
	}
	if demand[0] != (UnitHint{}) || held[0] != (SyncHeld{}) {
		t.Errorf("payload elements not zeroed: %+v %+v", demand[0], held[0])
	}
	if kept.App != "a" || kept.Demand[0].Node != 5 || kept.Held[0].Machine != 4 {
		t.Errorf("Keep's copy did not survive the Clear: %+v", kept)
	}
}

// TestRunPayloadsWellFormed pins what a DemandUpdate or GrantUpdate receiver
// refuses: a zero count. Runs come in any unit order, and a unit may come
// back in a later run — every receiver takes each run as it comes.
func TestRunPayloadsWellFormed(t *testing.T) {
	hint := func(unit, count int) UnitHint {
		return UnitHint{UnitID: unit, LocalityHint: resource.LocalityHint{Type: resource.LocalityCluster, Count: count}}
	}
	for _, c := range []struct {
		name string
		hs   []UnitHint
		ok   bool
	}{
		{"empty", nil, true},
		{"one run", []UnitHint{hint(2, 3), hint(2, -1)}, true},
		{"runs in first-request order", []UnitHint{hint(3, 1), hint(3, 2), hint(1, 4), hint(2, -2)}, true},
		{"a unit in two runs", []UnitHint{hint(1, 1), hint(2, 1), hint(1, 1)}, true},
		{"wide unit IDs", []UnitHint{hint(63, 1), hint(64, 1), hint(64, 2), hint(1<<40, 1), hint(-1, 1)}, true},
		{"zero count", []UnitHint{hint(1, 1), hint(1, 0)}, false},
		{"zero count in a later run", []UnitHint{hint(1, 1), hint(2, 1), hint(1, 0)}, false},
	} {
		deltas := make([]UnitDelta, len(c.hs))
		for i, h := range c.hs {
			deltas[i] = UnitDelta{UnitID: h.UnitID, Machine: int32(i), Delta: h.Count}
		}
		du, gu := DemandUpdate{Deltas: c.hs}, GrantUpdate{Changes: deltas}
		if got := du.WellFormed(); got != c.ok {
			t.Errorf("%s: DemandUpdate.WellFormed = %v, want %v", c.name, got, c.ok)
		}
		if got := gu.WellFormed(); got != c.ok {
			t.Errorf("%s: GrantUpdate.WellFormed = %v, want %v", c.name, got, c.ok)
		}
	}
}

// TestDemandUpdateReturnsWellFormed: a DemandUpdate whose return gives back
// zero or fewer containers is not WellFormed, however well-formed its demand;
// a return the receiver cannot honour (a machine it does not know, more than
// is held) is the receiver's to refuse, entry by entry.
func TestDemandUpdateReturnsWellFormed(t *testing.T) {
	ok := []UnitHint{{UnitID: 1, LocalityHint: resource.LocalityHint{Type: resource.LocalityCluster, Count: 1}}}
	for _, c := range []struct {
		name string
		rs   []ReturnEntry
		want bool
	}{
		{"returns only", []ReturnEntry{{UnitID: 1, Machine: 2, Count: 1}}, true},
		{"any machine, any unit", []ReturnEntry{{UnitID: 99, Machine: -1, Count: 1 << 40}}, true},
		{"zero return", []ReturnEntry{{UnitID: 1, Machine: 2, Count: 1}, {UnitID: 1, Machine: 3, Count: 0}}, false},
		{"negative return", []ReturnEntry{{UnitID: 1, Machine: 2, Count: -1}}, false},
	} {
		for _, deltas := range [][]UnitHint{nil, ok} {
			u := DemandUpdate{Returns: c.rs, Deltas: deltas}
			if got := u.WellFormed(); got != c.want {
				t.Errorf("%s, %d hints: WellFormed = %v, want %v", c.name, len(deltas), got, c.want)
			}
		}
	}
}

// TestDemandUpdateRecycles: Clear leaves nothing of the last use readable but
// keeps both payloads' capacity, and Keep's copy outlives the Clear.
func TestDemandUpdateRecycles(t *testing.T) {
	u := &DemandUpdate{App: "a", Seq: 4,
		Returns: []ReturnEntry{{UnitID: 1, Machine: 2, Count: 3}},
		Deltas:  []UnitHint{{UnitID: 1, LocalityHint: resource.LocalityHint{Type: resource.LocalityMachine, Node: 5, Count: 2}}},
	}
	kept := Keep(u).(DemandUpdate)
	rs, ds := u.Returns[:1], u.Deltas[:1]
	u.Clear()
	if u.App != "" || u.Seq != 0 || len(u.Returns) != 0 || len(u.Deltas) != 0 {
		t.Errorf("cleared update still carries %+v", *u)
	}
	if cap(u.Returns) == 0 || cap(u.Deltas) == 0 {
		t.Error("Clear dropped the payloads' capacity")
	}
	if rs[0] != (ReturnEntry{}) || ds[0] != (UnitHint{}) {
		t.Errorf("payload elements not zeroed: %+v %+v", rs[0], ds[0])
	}
	if kept.App != "a" || kept.Returns[0].Count != 3 || kept.Deltas[0].Node != 5 {
		t.Errorf("Keep's copy did not survive the Clear: %+v", kept)
	}
}

// TestNextRunSplitsByUnit: NextRun hands out the runs in order, each whole.
func TestNextRunSplitsByUnit(t *testing.T) {
	list := []UnitDelta{{UnitID: 4, Delta: 1}, {UnitID: 4, Delta: -1}, {UnitID: 1, Delta: 2}, {UnitID: 9, Delta: 3}}
	var units, sizes []int
	for rest := list; len(rest) > 0; {
		var run []UnitDelta
		run, rest = NextRun(rest)
		units, sizes = append(units, run[0].UnitID), append(sizes, len(run))
	}
	if want := []int{4, 1, 9}; !slices.Equal(units, want) {
		t.Errorf("runs of units %v, want %v", units, want)
	}
	if want := []int{2, 1, 1}; !slices.Equal(sizes, want) {
		t.Errorf("run sizes %v, want %v", sizes, want)
	}
	if run, rest := NextRun[UnitHint](nil); run != nil || rest != nil {
		t.Errorf("NextRun(nil) = %v, %v", run, rest)
	}
}

// TestEpochGateFencesUnstampedAfterAnEpoch: before any epoch is seen an
// unstamped message passes, as the receiver has nothing to fence it by; once
// epoch 1 is seen, epoch 0 is older than the mark like any deposed epoch, and
// it neither moves the mark nor resets the channel.
func TestEpochGateFencesUnstampedAfterAnEpoch(t *testing.T) {
	var g EpochGate
	var d Dedup
	if g.StaleCh(0, &d, 7, ChanGrant) {
		t.Fatal("epoch 0 fenced before any epoch was seen")
	}
	if g.StaleCh(1, &d, 7, ChanGrant) || g.Current() != 1 {
		t.Fatalf("epoch 1: current %d, want 1 and not stale", g.Current())
	}
	d.ObserveCh(7, ChanGrant, 5)
	if !g.StaleCh(0, &d, 7, ChanGrant) {
		t.Fatal("epoch 0 passed after epoch 1")
	}
	if g.Current() != 1 || d.LastCh(7, ChanGrant) != 5 {
		t.Fatalf("the fenced message moved the gate to %d or the mark to %d", g.Current(), d.LastCh(7, ChanGrant))
	}
}
