package transport

// This file holds the traffic counters' reset and the name-keyed partition: exported for this package's tests, which read
// them, and called by no shipped code.

// ResetStats zeroes the traffic counters.
func (n *Net) ResetStats() { n.stats = Stats{} }

// Partition splits the network into two groups that cannot reach each
// other: messages between a and b are dropped at send time, and messages
// already in flight across the cut are dropped at arrival (a partition
// starting mid-flight loses them, like a real wire). Endpoints in neither
// group keep connectivity to both sides — the asymmetric shape behind
// split-brain scenarios (master and standby cut from each other but both
// reachable from agents). A new Partition or Isolate replaces any earlier
// one; Heal clears it.
func (n *Net) Partition(a, b []string) {
	n.clearSides()
	for _, name := range a {
		n.side[n.Endpoint(name).Slot()] = 1
	}
	for _, name := range b {
		n.side[n.Endpoint(name).Slot()] = 2
	}
	n.partActive, n.isolate = true, false
	n.recomputeChaos()
}
