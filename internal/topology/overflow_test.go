package topology

import (
	"testing"

	"repro/internal/resource"
)

// TestOverflowRoundTrip: known names keep their dense IDs, unknown ones get
// IDs past the dense range per level in first-seen order, and Name inverts
// Node for both.
func TestOverflowRoundTrip(t *testing.T) {
	top, err := Build(Spec{Racks: 2, MachinesPerRack: 3, MachineCapacity: PaperTestbedMachine()})
	if err != nil {
		t.Fatal(err)
	}
	var o Overflow
	m, r := resource.LocalityMachine, resource.LocalityRack
	known := top.Machines()[4]
	for _, tc := range []struct {
		level resource.LocalityType
		name  string
		want  int32
	}{
		{m, known, 4},
		{m, "ghost-a", 6}, {m, "ghost-b", 7}, {m, "ghost-a", 6},
		{r, top.Racks()[1], 1},
		{r, "ghost-a", 2}, // levels number independently
		{resource.LocalityCluster, "", 0},
	} {
		got := o.Node(top, tc.level, tc.name)
		if got != tc.want {
			t.Errorf("Node(%v, %q) = %d, want %d", tc.level, tc.name, got, tc.want)
		}
		if back := o.Name(top, tc.level, got); back != tc.name {
			t.Errorf("Name(%v, %d) = %q, want %q", tc.level, got, back, tc.name)
		}
	}
	var fresh Overflow
	if fresh.Node(top, m, known) != 4 || fresh.ext != nil {
		t.Error("a known name allocated the overflow tables")
	}
}
