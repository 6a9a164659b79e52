package topology

import "repro/internal/resource"

// This file holds the cluster's total capacity: exported for this package's tests, which read
// it, and called by no shipped code.

// TotalCapacity returns the summed capacity of all machines.
func (t *Topology) TotalCapacity() resource.Vector {
	var total resource.Vector
	for _, m := range t.byID {
		total = total.Add(m.Capacity)
	}
	return total
}
