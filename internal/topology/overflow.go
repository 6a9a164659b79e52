package topology

import (
	"repro/internal/ident"
	"repro/internal/resource"
)

// Overflow gives node IDs to the machine and rack names in locality hints
// that a topology does not know. Such demand can never be placed, but it is
// stated, queued, counted, withdrawn and re-stated in full syncs like any
// other, so it needs an ID: the next one past the topology's dense range at
// its level, in first-seen order. The scheduler's locality tree and the
// application masters' demand tables both key by these IDs. The zero value is
// ready; the tables are allocated with the first unknown name, so a holder
// that never sees one pays one word.
type Overflow struct {
	ext *[2]ident.Table // machine names, rack names
}

// Node resolves a hint target to its node ID at level: the dense topology ID
// of a known machine or rack, an overflow ID for an unknown one, 0 for the
// cluster level.
func (o *Overflow) Node(t *Topology, level resource.LocalityType, name string) int32 {
	var id, dense int32
	switch level {
	case resource.LocalityMachine:
		id, dense = t.MachineID(name), int32(t.Size())
	case resource.LocalityRack:
		id, dense = t.RackID(name), int32(t.NumRacks())
	}
	if id >= 0 {
		return id
	}
	if o.ext == nil {
		o.ext = new([2]ident.Table)
	}
	return dense + o.ext[level].Intern(name)
}

// Name is the inverse of Node ("" for the cluster level).
func (o *Overflow) Name(t *Topology, level resource.LocalityType, node int32) string {
	switch level {
	case resource.LocalityMachine:
		if dense := int32(t.Size()); node >= dense {
			return o.ext[level].Name(node - dense)
		}
		return t.MachineName(node)
	case resource.LocalityRack:
		if dense := int32(t.NumRacks()); node >= dense {
			return o.ext[level].Name(node - dense)
		}
		return t.RackName(node)
	}
	return ""
}
