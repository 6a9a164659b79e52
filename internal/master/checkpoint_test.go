package master

import (
	"reflect"
	"testing"

	"repro/internal/resource"
)

func TestCheckpointRoundTrip(t *testing.T) {
	s := NewCheckpointStore()
	a := AppConfig{Name: "a", Group: "g", Units: []resource.ScheduleUnit{{ID: 1, Priority: 1, MaxCount: 5, Size: resource.New(1, 1)}}}
	b := AppConfig{Name: "b"}
	s.SaveApp(a)
	s.SaveApp(b)
	black := []BlacklistEntry{{Machine: "m1"}, {Machine: "m2", Pins: pinVotes | pinFlap}}
	s.SetBlacklist(black)
	snap := s.Load()
	if len(snap.Apps) != 2 || snap.Apps[0].Name != "a" || snap.Apps[1].Name != "b" {
		t.Fatalf("apps = %v", snap.Apps)
	}
	if !reflect.DeepEqual(snap.Blacklist, black) {
		t.Fatalf("blacklist = %v, want %v", snap.Blacklist, black)
	}
}

func TestCheckpointRemoveApp(t *testing.T) {
	s := NewCheckpointStore()
	s.SaveApp(AppConfig{Name: "a"})
	s.SaveApp(AppConfig{Name: "b"})
	s.RemoveApp("a")
	snap := s.Load()
	if len(snap.Apps) != 1 || snap.Apps[0].Name != "b" {
		t.Fatalf("apps after remove = %v", snap.Apps)
	}
	w := s.Writes
	s.RemoveApp("ghost")
	if s.Writes != w {
		t.Error("removing unknown app counted a write")
	}
}

func TestCheckpointSaveAppReplacesInPlace(t *testing.T) {
	s := NewCheckpointStore()
	s.SaveApp(AppConfig{Name: "a", Group: "g1"})
	s.SaveApp(AppConfig{Name: "b"})
	s.SaveApp(AppConfig{Name: "a", Group: "g2"})
	snap := s.Load()
	if len(snap.Apps) != 2 {
		t.Fatalf("apps = %v", snap.Apps)
	}
	if snap.Apps[0].Name != "a" || snap.Apps[0].Group != "g2" {
		t.Errorf("replacement lost order or content: %v", snap.Apps)
	}
}

func TestCheckpointEpochs(t *testing.T) {
	s := NewCheckpointStore()
	if s.BumpEpoch() != 1 || s.BumpEpoch() != 2 {
		t.Error("epochs not monotone")
	}
	if s.Load().Epoch != 2 {
		t.Errorf("epoch = %d", s.Load().Epoch)
	}
}

func TestCheckpointLoadReturnsCopies(t *testing.T) {
	s := NewCheckpointStore()
	s.SetBlacklist([]BlacklistEntry{{Machine: "m1"}})
	snap := s.Load()
	snap.Blacklist[0].Machine = "tampered"
	if s.Load().Blacklist[0].Machine != "m1" {
		t.Error("Load aliases internal state")
	}
}
