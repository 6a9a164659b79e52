package resource

import (
	"cmp"
	"fmt"
	"slices"
)

// ScheduleUnit is the unit-size resource description an application master
// schedules in (paper §3.2.2): e.g. {1 core CPU, 2 GB Memory} at a given
// priority. All subsequent requests by the application reference the unit by
// ID and only carry per-locality counts.
type ScheduleUnit struct {
	// ID identifies the unit within its owning application. Matches the
	// paper's slot_id.
	ID int
	// Priority orders competing requests in the locality tree; smaller
	// values are more urgent (the paper's examples use larger-is-lower
	// conventions inconsistently; we fix smaller = higher priority).
	Priority int
	// Size is the per-unit resource vector; every granted unit reserves
	// exactly Size on its machine.
	Size Vector
	// MaxCount caps the total number of units the application may hold
	// (paper's max_slot_count).
	MaxCount int
}

// Validate reports a descriptive error when the unit definition is unusable.
func (u ScheduleUnit) Validate() error {
	if u.Size.IsZero() {
		return fmt.Errorf("schedule unit %d: empty size", u.ID)
	}
	if !u.Size.NonNegative() {
		return fmt.Errorf("schedule unit %d: negative dimension in %v", u.ID, u.Size)
	}
	if u.MaxCount <= 0 {
		return fmt.Errorf("schedule unit %d: max count %d must be positive", u.ID, u.MaxCount)
	}
	return nil
}

// LocalityType classifies a locality preference in a resource request
// (paper Figure 4: LT_MACHINE, LT_RACK, plus the implicit cluster level).
type LocalityType int

const (
	// LocalityMachine pins the preference to one machine.
	LocalityMachine LocalityType = iota
	// LocalityRack accepts any machine in one rack.
	LocalityRack
	// LocalityCluster accepts any machine in the cluster.
	LocalityCluster
)

func (t LocalityType) String() string {
	switch t {
	case LocalityMachine:
		return "machine"
	case LocalityRack:
		return "rack"
	case LocalityCluster:
		return "cluster"
	default:
		return fmt.Sprintf("LocalityType(%d)", int(t))
	}
}

// LocalityHint is one (level, node, count) preference inside a request:
// "count units preferably at node", where node is the dense topology ID of a
// machine or rack (its index in the topology's sorted machine or rack names)
// and 0 at cluster level. A hint is fixed-width: names stay at the edges, and
// (level, node) order is (level, name) order for every node a topology holds.
type LocalityHint struct {
	Type  LocalityType
	Node  int32 // machine or rack ID; 0 for cluster
	Count int
}

func (h LocalityHint) String() string {
	if h.Type == LocalityCluster {
		return fmt.Sprintf("cluster*%d", h.Count)
	}
	return fmt.Sprintf("%s(%d)*%d", h.Type, h.Node, h.Count)
}

// SortHints orders hints by (Type, Node) in place, allocation-free (the
// batched-round merge path must not pay sort.Slice's reflective swapper per
// (app, unit) per round). Equal keys may be reordered; every caller either
// has unique keys or merges equal keys by summing, so stability is moot.
func SortHints(hints []LocalityHint) { slices.SortFunc(hints, CompareHints) }

// CompareHints orders two hints by (Type, Node), the wire order of hint
// lists.
func CompareHints(a, b LocalityHint) int {
	return cmp.Or(cmp.Compare(a.Type, b.Type), cmp.Compare(a.Node, b.Node))
}
