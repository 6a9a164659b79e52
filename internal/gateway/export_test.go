package gateway

// This file holds the decision-stream hash and the master epoch: exported for this package's tests, which read
// them, and called by no shipped code.

// DecisionHash returns the stream hash: byte-identical decision streams —
// same decisions, same order, same virtual times — have equal hashes.
func (g *Gateway) DecisionHash() uint64 { return g.hash }

// MasterEpoch returns the highest election epoch observed in acks/hellos.
func (g *Gateway) MasterEpoch() int { return g.epoch }
