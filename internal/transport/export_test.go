package transport

// This file holds the traffic counters' reset: exported for this package's tests, which read
// them, and called by no shipped code.

// ResetStats zeroes the traffic counters.
func (n *Net) ResetStats() { n.stats = Stats{} }
