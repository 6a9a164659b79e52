// Package topology models the cluster's physical layout: machines grouped
// into racks (paper §3.2.2's three-level machine/rack/cluster hierarchy).
// The topology is the substrate both the FuxiMaster locality tree and the
// Pangu replica placer consult.
package topology

import (
	"fmt"
	"sort"

	"repro/internal/ident"
	"repro/internal/resource"
)

// Machine describes one cluster node.
type Machine struct {
	Name     string
	Rack     string
	Capacity resource.Vector
	// id is the dense topology ID, filled by New (ID() exposes it).
	id int32
	// Disks is the number of local data disks; used by the DFS placer and
	// the sort workload's I/O model.
	Disks int
	// DiskBandwidthMBps is the per-disk sequential bandwidth.
	DiskBandwidthMBps int
	// NetBandwidthMBps is the NIC bandwidth (paper testbed: two gigabit
	// ports ≈ 250 MB/s).
	NetBandwidthMBps int
}

// Topology is an immutable snapshot of the cluster layout.
//
// Besides the name-based accessors, every machine and rack carries a dense
// integer ID — its index in the sorted name list — so hot paths can keep
// per-machine state in slices instead of string-keyed maps. Because the IDs
// derive from the sorted names, ID order and sorted-name order coincide,
// and every process building the same topology assigns the same IDs (which
// is what makes machine IDs safe to carry on the control-plane wire).
type Topology struct {
	machines map[string]*Machine
	names    []string // sorted machine names
	rackList []string // sorted rack names
	total    resource.Vector

	machTbl   ident.Table // machine name -> dense ID (sorted order)
	rackTbl   ident.Table // rack name -> dense ID (sorted order)
	byID      []*Machine  // machine ID -> machine
	rackOfID  []int32     // machine ID -> rack ID
	rackIDs   [][]int32   // rack ID -> sorted machine IDs
	rackNames []string    // alias of rackList (ID order)
	runEnd    []int32     // machine ID -> end of its run of same-rack IDs
}

// New builds a topology from a machine list. Machine names must be unique.
func New(machines []Machine) (*Topology, error) {
	t := &Topology{machines: make(map[string]*Machine, len(machines))}
	racks := make(map[string]bool)
	for i := range machines {
		m := machines[i]
		if m.Name == "" {
			return nil, fmt.Errorf("machine %d: empty name", i)
		}
		if m.Rack == "" {
			return nil, fmt.Errorf("machine %q: empty rack", m.Name)
		}
		if _, dup := t.machines[m.Name]; dup {
			return nil, fmt.Errorf("duplicate machine name %q", m.Name)
		}
		mc := m
		t.machines[m.Name] = &mc
		racks[m.Rack] = true
		t.names = append(t.names, m.Name)
		t.total = t.total.Add(m.Capacity)
	}
	sort.Strings(t.names)
	for r := range racks {
		t.rackList = append(t.rackList, r)
	}
	sort.Strings(t.rackList)
	// Dense IDs: machine/rack ID == index into the sorted name lists.
	for _, r := range t.rackList {
		t.rackTbl.Intern(r)
	}
	t.rackNames = t.rackList
	t.rackIDs = make([][]int32, len(t.rackList))
	t.byID = make([]*Machine, len(t.names))
	t.rackOfID = make([]int32, len(t.names))
	for _, name := range t.names {
		id := t.machTbl.Intern(name)
		m := t.machines[name]
		m.id = id
		t.byID[id] = m
		rid := t.rackTbl.ID(m.Rack)
		t.rackOfID[id] = rid
		t.rackIDs[rid] = append(t.rackIDs[rid], id)
	}
	t.runEnd = make([]int32, len(t.names))
	for id := int32(len(t.names)) - 1; id >= 0; id-- {
		t.runEnd[id] = id + 1
		if next := id + 1; int(next) < len(t.names) && t.rackOfID[next] == t.rackOfID[id] {
			t.runEnd[id] = t.runEnd[next]
		}
	}
	return t, nil
}

// Spec describes a homogeneous cluster for the Build convenience
// constructor: Racks racks of MachinesPerRack machines, every machine with
// the same shape.
type Spec struct {
	Racks             int
	MachinesPerRack   int
	MachineCapacity   resource.Vector
	Disks             int
	DiskBandwidthMBps int
	NetBandwidthMBps  int
}

// PaperTestbedMachine returns the per-machine capacity of the paper's
// evaluation testbed (§5): 2×2.20 GHz 6-core Xeon E5-2430 (12 cores) and
// 96 GB memory.
func PaperTestbedMachine() resource.Vector {
	return resource.New(12*1000, 96*1024)
}

// Build constructs a homogeneous topology with names r<rack>m<machine>.
func Build(spec Spec) (*Topology, error) {
	if spec.Racks <= 0 || spec.MachinesPerRack <= 0 {
		return nil, fmt.Errorf("topology spec needs positive racks (%d) and machines per rack (%d)", spec.Racks, spec.MachinesPerRack)
	}
	machines := make([]Machine, 0, spec.Racks*spec.MachinesPerRack)
	for r := 0; r < spec.Racks; r++ {
		rack := fmt.Sprintf("r%03d", r)
		for m := 0; m < spec.MachinesPerRack; m++ {
			machines = append(machines, Machine{
				Name:              fmt.Sprintf("%sm%03d", rack, m),
				Rack:              rack,
				Capacity:          spec.MachineCapacity,
				Disks:             spec.Disks,
				DiskBandwidthMBps: spec.DiskBandwidthMBps,
				NetBandwidthMBps:  spec.NetBandwidthMBps,
			})
		}
	}
	return New(machines)
}

// Machine returns the named machine, or nil if unknown.
func (t *Topology) Machine(name string) *Machine {
	return t.machines[name]
}

// ID returns the machine's dense topology ID (0 for machines never passed
// through New — only topology-owned Machine values carry a real ID).
func (m *Machine) ID() int32 { return m.id }

// Machines returns all machine names in sorted order. The caller must not
// modify the returned slice.
func (t *Topology) Machines() []string { return t.names }

// Racks returns all rack names in sorted order. The caller must not modify
// the returned slice.
func (t *Topology) Racks() []string { return t.rackList }

// Size returns the machine count.
func (t *Topology) Size() int { return len(t.names) }

// ---------------------------------------------------------------------------
// Dense integer IDs (machine/rack ID == index into the sorted name lists)
// ---------------------------------------------------------------------------

// MachineID returns the dense ID of a machine name, or ident.None when the
// name is not part of the topology.
func (t *Topology) MachineID(name string) int32 { return t.machTbl.ID(name) }

// MachineName returns the name of a machine ID (panics on out-of-range IDs,
// like a slice index).
func (t *Topology) MachineName(id int32) string { return t.names[id] }

// MachineByID returns the machine for a dense ID.
func (t *Topology) MachineByID(id int32) *Machine { return t.byID[id] }

// RackName returns the name of a rack ID.
func (t *Topology) RackName(id int32) string { return t.rackNames[id] }

// RackIDOf returns the rack ID of a machine ID.
func (t *Topology) RackIDOf(machine int32) int32 { return t.rackOfID[machine] }

// RackRunEnd returns the first machine ID past machine's run of consecutive
// IDs in its rack: a scan in ID order that rules out the rack skips to it in
// one step. (Build's racks are one run each; a rack whose machine names
// interleave with another's is several.)
func (t *Topology) RackRunEnd(machine int32) int32 { return t.runEnd[machine] }

// MachineIDsInRack returns the sorted machine IDs of a rack. The caller
// must not modify the returned slice.
func (t *Topology) MachineIDsInRack(rack int32) []int32 { return t.rackIDs[rack] }

// NumRacks returns the rack count; valid rack IDs are [0, NumRacks).
func (t *Topology) NumRacks() int { return len(t.rackNames) }

// Holds reports whether node names a locality node of the topology at level:
// a machine ID in [0, Size), a rack ID in [0, NumRacks), or 0 at cluster
// level. It is the one check a demand hint from the wire must pass.
func (t *Topology) Holds(level resource.LocalityType, node int32) bool {
	switch level {
	case resource.LocalityMachine:
		return node >= 0 && int(node) < len(t.names)
	case resource.LocalityRack:
		return node >= 0 && int(node) < len(t.rackNames)
	case resource.LocalityCluster:
		return node == 0
	}
	return false
}

// TotalCapacity returns the summed capacity of all machines.
func (t *Topology) TotalCapacity() resource.Vector { return t.total }
