package ident

import "testing"

func TestTableDenseRegistrationOrder(t *testing.T) {
	var tb Table
	names := []string{"r000m000", "r000m001", "app-1", "r000m000", "agent:x"}
	want := []int32{0, 1, 2, 0, 3}
	for i, n := range names {
		if id := tb.Intern(n); id != want[i] {
			t.Fatalf("Intern(%q) = %d, want %d", n, id, want[i])
		}
	}
	if tb.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tb.Len())
	}
	if got := tb.ID("app-1"); got != 2 {
		t.Fatalf("ID(app-1) = %d, want 2", got)
	}
	if got := tb.ID("missing"); got != None {
		t.Fatalf("ID(missing) = %d, want None", got)
	}
	if got := tb.Name(3); got != "agent:x" {
		t.Fatalf("Name(3) = %q", got)
	}
}

func TestTableZeroValue(t *testing.T) {
	var tb Table
	if tb.Len() != 0 || tb.ID("x") != None {
		t.Fatal("zero table not empty")
	}
	if id := tb.Intern("x"); id != 0 {
		t.Fatalf("first Intern = %d", id)
	}
}

func TestReleaseReusesOldestFirst(t *testing.T) {
	var tb Table
	for _, n := range []string{"a", "b", "c", "d"} {
		tb.Intern(n)
	}
	tb.Release(tb.ID("c"))
	tb.Release(tb.ID("a"))
	tb.Release(0) // a released ID: nothing to release
	if tb.ID("a") != None || tb.Name(0) != "" || tb.Live() != 2 {
		t.Fatalf("after release: ID(a) %d, Name(0) %q, Live %d", tb.ID("a"), tb.Name(0), tb.Live())
	}
	if id := tb.Intern("e"); id != 2 {
		t.Fatalf("Intern(e) = %d, want c's 2 (released first)", id)
	}
	if id := tb.Intern("f"); id != 0 {
		t.Fatalf("Intern(f) = %d, want a's 0", id)
	}
	if id := tb.Intern("g"); id != 4 || tb.Len() != 5 {
		t.Fatalf("Intern(g) = %d with Len %d, want a new ID 4", id, tb.Len())
	}
	// Names that come and go one at a time keep one ID between them, and
	// the free list does not grow with the names ever released.
	for i := 0; i < 10000; i++ {
		n := string(rune('A'+i%26)) + string(rune('a'+i/26%26)) + string(rune('0'+i/676))
		tb.Release(tb.Intern(n))
	}
	if tb.Len() != 6 || len(tb.slots.free) > 2 {
		t.Fatalf("Len %d, free list %d after 10,000 short-lived names", tb.Len(), len(tb.slots.free))
	}
}

func TestGenerationalIDs(t *testing.T) {
	for _, c := range []struct {
		slot int32
		gen  uint32
	}{{0, 0}, {1, 0}, {0, 1}, {1<<SlotBits - 1, 1<<GenBits - 1}, {7, 1 << GenBits}} {
		id := Tag(c.slot, c.gen)
		if id < 0 || SlotOf(id) != c.slot || GenOf(id) != c.gen%(1<<GenBits) {
			t.Errorf("Tag(%d, %d) = %d: slot %d, gen %d", c.slot, c.gen, id, SlotOf(id), GenOf(id))
		}
	}
}
