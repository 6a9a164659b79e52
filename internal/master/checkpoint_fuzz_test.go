package master

import (
	"bytes"
	"testing"

	"repro/internal/resource"
)

// checkpointLogFixture builds a store with a representative mutation
// history and returns its anchor bytes and pending delta log: every opcode
// appears at least once, apps carry multi-dimensional vectors, and the
// blacklist both grows and clears.
func checkpointLogFixture() (anchor, log []byte) {
	c := NewCheckpointStore()
	c.compactEvery = 4 // force one real anchor mid-history
	c.SaveApp(AppConfig{Name: "etl-1", Group: "gold", Units: []resource.ScheduleUnit{
		{ID: 1, Priority: 100, MaxCount: 40, Size: resource.New(1000, 4096)},
		{ID: 2, Priority: 80, MaxCount: 10, Size: resource.New(2000, 8192).With("gpu", 1)},
	}})
	c.SaveApp(AppConfig{Name: "svc-a", Group: "bronze", Units: []resource.ScheduleUnit{
		{ID: 1, Priority: 220, MaxCount: 3, Size: resource.New(500, 1024)},
	}})
	c.BumpEpoch()
	c.SetBlacklist([]string{"r3m7", "r12m1", "r0m4"})
	c.SaveApp(AppConfig{Name: "etl-1", Group: "gold", Units: []resource.ScheduleUnit{
		{ID: 1, Priority: 110, MaxCount: 60, Size: resource.New(1000, 4096)},
	}})
	c.RemoveApp("svc-a")
	c.BumpEpoch()
	c.SetBlacklist(nil)
	c.SaveApp(AppConfig{Name: "svc-b", Group: "", Units: nil})
	return c.anchor, c.log
}

// TestCheckpointDeltaCorruptionNeverPanics sweeps the fixture's delta log
// with every truncation point and a set of byte flips at every offset: the
// replay must either succeed (corruption can land on a record boundary or
// produce a differently-valid record — the format has no checksum) or
// return an error. It must never panic: a standby promotes by replaying
// exactly these bytes, and a poisoned log must surface as a load error a
// supervisor can act on, not kill the new master. Fails on the old codec,
// where a corrupt blacklist count reached make() unvalidated.
func TestCheckpointDeltaCorruptionNeverPanics(t *testing.T) {
	anchor, log := checkpointLogFixture()
	if len(log) == 0 {
		t.Fatal("fixture produced an empty delta log")
	}
	base, err := DecodeSnapshot(anchor)
	if err != nil {
		t.Fatalf("fixture anchor does not decode: %v", err)
	}
	replay := func(what string, b []byte) {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("%s: replayDeltas panicked: %v", what, p)
			}
		}()
		s := base // Snapshot is value-copied; slices are only appended/replaced
		s.Apps = append([]AppConfig(nil), base.Apps...)
		s.Blacklist = append([]string(nil), base.Blacklist...)
		_ = replayDeltas(&s, b)
	}
	for i := 0; i <= len(log); i++ {
		replay("truncate", log[:i])
	}
	mut := make([]byte, len(log))
	for i := 0; i < len(log); i++ {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			copy(mut, log)
			mut[i] ^= flip
			replay("flip", mut)
		}
	}
	// The specific historical panic: a blacklist record whose count claims
	// far more entries than the log holds must error, not make([]) a
	// multi-exabyte slice.
	poison := []byte{opSetBlacklist, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	s := Snapshot{}
	if err := replayDeltas(&s, poison); err == nil {
		t.Fatal("oversized blacklist count replayed without error")
	}
	// Mid-record truncation cannot silently succeed: chopping the final
	// record's last byte must produce an error, not a shorter history.
	if err := replayDeltas(&s, log[:len(log)-1]); err == nil {
		t.Fatal("mid-record truncation replayed without error")
	}
}

// FuzzCheckpointDeltaReplay feeds arbitrary bytes to the delta replayer on
// top of a real decoded anchor. The contract under fuzz: no panic, ever —
// corrupt logs must come back as errors.
func FuzzCheckpointDeltaReplay(f *testing.F) {
	anchor, log := checkpointLogFixture()
	f.Add(log)
	f.Add(log[:len(log)/2])
	f.Add([]byte{opSetBlacklist, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{opSaveApp, 0x02, 'h', 'i'})
	f.Add([]byte{opBumpEpoch})
	f.Add([]byte{0x00})
	base, err := DecodeSnapshot(anchor)
	if err != nil {
		f.Fatalf("fixture anchor does not decode: %v", err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := base
		s.Apps = append([]AppConfig(nil), base.Apps...)
		s.Blacklist = append([]string(nil), base.Blacklist...)
		_ = replayDeltas(&s, data) // must not panic
	})
}

// FuzzCheckpointSnapshotDecode fuzzes the anchor decoder with the
// re-encode fixpoint property: whatever DecodeSnapshot accepts must
// re-encode to a canonical form that decodes to the same snapshot and
// re-encodes byte-identically (the second generation is the canonical
// witness — raw fuzz input may spell the same snapshot non-canonically).
func FuzzCheckpointSnapshotDecode(f *testing.F) {
	anchor, _ := checkpointLogFixture()
	f.Add(anchor)
	f.Add(EncodeSnapshot(Snapshot{}))
	f.Add([]byte{snapshotVersion, 0x00, 0x01, 0x02, 'a', 'b'})
	f.Add([]byte{snapshotVersion, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	// One app named "a" claiming 2^63-1 units, followed by one unit's bytes:
	// the decoder may reserve room for what the bytes left can hold, no more.
	f.Add([]byte{snapshotVersion, 0x00, 0x01, 0x01, 'a', 0x00,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f,
		0x02, 0x02, 0x02, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		enc1 := EncodeSnapshot(s)
		s2, err := DecodeSnapshot(enc1)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		enc2 := EncodeSnapshot(s2)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encode/decode fixpoint diverged:\n%x\n%x", enc1, enc2)
		}
	})
}
