package topology

import (
	"testing"

	"repro/internal/resource"
)

func TestBuildShape(t *testing.T) {
	top, err := Build(Spec{Racks: 3, MachinesPerRack: 4, MachineCapacity: resource.New(12000, 96*1024)})
	if err != nil {
		t.Fatal(err)
	}
	if top.Size() != 12 {
		t.Errorf("size = %d, want 12", top.Size())
	}
	if len(top.Racks()) != 3 {
		t.Errorf("racks = %d, want 3", len(top.Racks()))
	}
	for r := int32(0); r < int32(top.NumRacks()); r++ {
		if n := len(top.MachineIDsInRack(r)); n != 4 {
			t.Errorf("rack %s has %d machines, want 4", top.RackName(r), n)
		}
	}
	want := resource.New(12000, 96*1024).Scale(12)
	if !top.TotalCapacity().Equal(want) {
		t.Errorf("total capacity = %v, want %v", top.TotalCapacity(), want)
	}
}

func TestRackOfAndMachineLookup(t *testing.T) {
	top, err := Build(Spec{Racks: 2, MachinesPerRack: 2, MachineCapacity: resource.New(1000, 1024)})
	if err != nil {
		t.Fatal(err)
	}
	name := top.Machines()[0]
	m := top.Machine(name)
	if m == nil {
		t.Fatalf("Machine(%q) = nil", name)
	}
	if rack := top.RackName(top.RackIDOf(m.ID())); rack != m.Rack {
		t.Errorf("rack of %s = %q, want %q", name, rack, m.Rack)
	}
	if top.Machine("nope") != nil {
		t.Error("unknown machine should be nil")
	}
	if top.MachineID("nope") >= 0 {
		t.Error("unknown machine should have no ID")
	}
}

func TestNewRejectsDuplicatesAndEmpties(t *testing.T) {
	cap := resource.New(1, 1)
	if _, err := New([]Machine{{Name: "a", Rack: "r", Capacity: cap}, {Name: "a", Rack: "r", Capacity: cap}}); err == nil {
		t.Error("duplicate names accepted")
	}
	if _, err := New([]Machine{{Name: "", Rack: "r", Capacity: cap}}); err == nil {
		t.Error("empty machine name accepted")
	}
	if _, err := New([]Machine{{Name: "a", Rack: "", Capacity: cap}}); err == nil {
		t.Error("empty rack accepted")
	}
}

func TestBuildRejectsBadSpec(t *testing.T) {
	if _, err := Build(Spec{Racks: 0, MachinesPerRack: 5}); err == nil {
		t.Error("zero racks accepted")
	}
	if _, err := Build(Spec{Racks: 5, MachinesPerRack: 0}); err == nil {
		t.Error("zero machines per rack accepted")
	}
}

func TestMachinesSorted(t *testing.T) {
	top, err := Build(Spec{Racks: 2, MachinesPerRack: 3, MachineCapacity: resource.New(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	names := top.Machines()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("machines not sorted: %q >= %q", names[i-1], names[i])
		}
	}
}

func TestPaperTestbedMachine(t *testing.T) {
	v := PaperTestbedMachine()
	if v.CPUMilli() != 12000 {
		t.Errorf("CPU = %d, want 12000 (12 cores)", v.CPUMilli())
	}
	if v.MemoryMB() != 96*1024 {
		t.Errorf("Memory = %d, want 96 GB", v.MemoryMB())
	}
}

// TestHolds: the last ID of each level is held and the next one is not;
// the cluster level has the one node 0, and no level holds a negative ID.
func TestHolds(t *testing.T) {
	top, err := Build(Spec{Racks: 2, MachinesPerRack: 3, MachineCapacity: PaperTestbedMachine()})
	if err != nil {
		t.Fatal(err)
	}
	m, r, c := resource.LocalityMachine, resource.LocalityRack, resource.LocalityCluster
	size, racks := int32(top.Size()), int32(top.NumRacks())
	for _, tc := range []struct {
		level resource.LocalityType
		node  int32
		want  bool
	}{
		{m, size - 1, true}, {m, size, false}, {m, -1, false},
		{r, racks - 1, true}, {r, racks, false}, {r, -1, false},
		{c, 0, true}, {c, 1, false}, {c, -1, false},
		{resource.LocalityType(3), 0, false}, {resource.LocalityType(-1), 0, false},
	} {
		if got := top.Holds(tc.level, tc.node); got != tc.want {
			t.Errorf("Holds(%v, %d) = %v, want %v", tc.level, tc.node, got, tc.want)
		}
	}
}
