package master

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/resource"
)

// deltaUnits builds a small unit list so delta records have realistic size.
func deltaUnits(n int) []resource.ScheduleUnit {
	us := make([]resource.ScheduleUnit, n)
	for i := range us {
		us[i] = resource.ScheduleUnit{ID: i, Priority: 1 + i%4, MaxCount: 10,
			Size: resource.New(500, 2048)}
	}
	return us
}

func TestDeltaLogReplayMatchesWriterView(t *testing.T) {
	// Interleaved saves, replaces, removes, blacklist and epoch writes:
	// Load (anchor+delta replay) must reproduce exactly what a full
	// snapshot of the writer's view encodes, at every step.
	s := newMirrored(4, false) // force several compactions mid-sequence
	step := 0
	check := func() {
		step++
		got := s.Load()
		want, err := DecodeSnapshot(EncodeSnapshot(s.oracle.materialize()))
		if err != nil {
			t.Fatalf("step %d: shadow encode failed: %v", step, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: replay diverged\n got %+v\nwant %+v", step, got, want)
		}
	}
	s.BumpEpoch()
	check()
	for i := 0; i < 7; i++ {
		s.SaveApp(AppConfig{Name: fmt.Sprintf("app-%d", i), Group: "g", Units: deltaUnits(3)})
		check()
	}
	s.SaveApp(AppConfig{Name: "app-2", Group: "g2", Units: deltaUnits(1)}) // replace in place
	s.RemoveApp("app-0")
	s.SetBlacklist([]BlacklistEntry{{Machine: "m-00-01", Pins: pinFlap}, {Machine: "m-00-02"}})
	check()
	s.RemoveApp("app-5")
	s.SetBlacklist(nil)
	s.BumpEpoch()
	check()
	if s.Compactions == 0 {
		t.Fatal("sequence never compacted; compactEvery not honoured")
	}
}

func TestDeltaLogCompactionPolicy(t *testing.T) {
	s := NewCheckpointStore()
	s.compactEvery = 3
	s.SaveApp(AppConfig{Name: "a"})
	s.SaveApp(AppConfig{Name: "b"})
	if s.Compactions != 0 || s.PendingDeltas() != 2 {
		t.Fatalf("compacted early: compactions=%d pending=%d", s.Compactions, s.PendingDeltas())
	}
	s.SaveApp(AppConfig{Name: "c"})
	if s.Compactions != 1 || s.PendingDeltas() != 0 {
		t.Fatalf("third write must compact: compactions=%d pending=%d", s.Compactions, s.PendingDeltas())
	}
	if s.AnchorBytes == 0 || s.DeltaBytes == 0 {
		t.Fatalf("byte split not accounted: anchor=%d delta=%d", s.AnchorBytes, s.DeltaBytes)
	}
	if s.Bytes() != s.AnchorBytes+s.DeltaBytes {
		t.Fatalf("Bytes() != anchor+delta")
	}
	// Promotion right after a compaction replays the anchor alone.
	snap := s.Load()
	if len(snap.Apps) != 3 {
		t.Fatalf("anchor-only load = %+v", snap.Apps)
	}
}

func TestDeltaBytesScaleWithChurnNotClusterState(t *testing.T) {
	// The acceptance bound in miniature: across n registrations the old
	// codec re-encoded all i prior apps on write i (O(n²) bytes total);
	// the delta log writes one app per record plus periodic anchors. The
	// gate requires >= 5x; the margin grows with n.
	s := NewCheckpointStore()
	for i := 0; i < 200; i++ {
		s.SaveApp(AppConfig{Name: fmt.Sprintf("job-%04d", i), Group: "batch", Units: deltaUnits(8)})
	}
	if s.FullBytes < 5*s.Bytes() {
		t.Fatalf("delta log saved %.1fx over full snapshots, want >= 5x (full=%d actual=%d)",
			float64(s.FullBytes)/float64(s.Bytes()), s.FullBytes, s.Bytes())
	}
}

func TestDeltaLogWriteCountsUnchanged(t *testing.T) {
	// The delta refactor must not change write accounting: the failover
	// write budgets count mutations, not records or anchors.
	s := NewCheckpointStore()
	s.BumpEpoch()
	s.SaveApp(AppConfig{Name: "a"})
	s.SaveApp(AppConfig{Name: "a"})
	s.RemoveApp("a")
	s.RemoveApp("a") // unknown: no write, no delta bytes
	before := s.DeltaBytes
	s.RemoveApp("ghost")
	if s.DeltaBytes != before {
		t.Fatal("no-op remove appended a delta record")
	}
	s.SetBlacklist([]BlacklistEntry{{Machine: "m"}})
	if s.Writes != 5 || s.BlacklistWrites != 1 {
		t.Fatalf("writes=%d blacklistWrites=%d, want 5/1", s.Writes, s.BlacklistWrites)
	}
}

func TestDeltaLogRejectsUnknownOpcode(t *testing.T) {
	var snap Snapshot
	if err := replayDeltas(&snap, []byte{0x7f}); err == nil {
		t.Fatal("unknown opcode replayed silently")
	}
}

func TestAnchorEncodingUnchangedByRefactor(t *testing.T) {
	// appendApp factoring must not alter the snapshot byte format (the
	// codec is versioned durable state).
	s := Snapshot{Epoch: 3,
		Apps:      []AppConfig{{Name: "a", Group: "g", Units: deltaUnits(2)}},
		Blacklist: []BlacklistEntry{{Machine: "m1", Pins: pinVotes}}}
	b := EncodeSnapshot(s)
	if b[0] != snapshotVersion {
		t.Fatal("version byte moved")
	}
	got, err := DecodeSnapshot(b)
	if err != nil || !reflect.DeepEqual(got, s) {
		t.Fatalf("round-trip changed: %v %+v", err, got)
	}
	if !bytes.Equal(EncodeSnapshot(s), b) {
		t.Fatal("encoding not deterministic")
	}
}
