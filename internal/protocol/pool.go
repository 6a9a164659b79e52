package protocol

import "slices"

// The transport.Recycled side of the pooled messages (see the package
// comment). Pool numbers are this package's to hand out: dense, from zero,
// one per type. Clear leaves nothing of the last use readable — header fields
// zero, every owned payload element zero, the payload empty with its capacity
// kept — so a receiver that wrongly kept the message or a payload slice reads
// zeros at once rather than some later message's contents.

const (
	poolRegisterApp = iota
	poolDemandUpdate
	poolGrantUpdate
	poolUnregisterApp
	poolUnregisterAck
	poolCapacityDelta
	poolJobAdmit
	poolJobAdmitAck
	poolFullDemandSync
	poolAgentHeartbeat
)

// Pool implements transport.Recycled.
func (*RegisterApp) Pool() int { return poolRegisterApp }

// Clear implements transport.Recycled. Units belongs to the sender.
func (m *RegisterApp) Clear() { *m = RegisterApp{} }

// Pool implements transport.Recycled.
func (*DemandUpdate) Pool() int { return poolDemandUpdate }

// Clear implements transport.Recycled.
func (m *DemandUpdate) Clear() {
	clear(m.Returns)
	clear(m.Deltas)
	*m = DemandUpdate{Returns: m.Returns[:0], Deltas: m.Deltas[:0]}
}

// Pool implements transport.Recycled.
func (*GrantUpdate) Pool() int { return poolGrantUpdate }

// Clear implements transport.Recycled.
func (m *GrantUpdate) Clear() {
	clear(m.Changes)
	*m = GrantUpdate{Changes: m.Changes[:0]}
}

// Pool implements transport.Recycled.
func (*UnregisterApp) Pool() int { return poolUnregisterApp }

// Clear implements transport.Recycled.
func (m *UnregisterApp) Clear() { *m = UnregisterApp{} }

// Pool implements transport.Recycled.
func (*UnregisterAck) Pool() int { return poolUnregisterAck }

// Clear implements transport.Recycled.
func (m *UnregisterAck) Clear() { *m = UnregisterAck{} }

// Pool implements transport.Recycled.
func (*CapacityDelta) Pool() int { return poolCapacityDelta }

// Clear implements transport.Recycled.
func (m *CapacityDelta) Clear() {
	clear(m.Entries)
	*m = CapacityDelta{Entries: m.Entries[:0]}
}

// Pool implements transport.Recycled.
func (*JobAdmit) Pool() int { return poolJobAdmit }

// Clear implements transport.Recycled.
func (m *JobAdmit) Clear() { *m = JobAdmit{} }

// Pool implements transport.Recycled.
func (*JobAdmitAck) Pool() int { return poolJobAdmitAck }

// Clear implements transport.Recycled.
func (m *JobAdmitAck) Clear() { *m = JobAdmitAck{} }

// Pool implements transport.Recycled.
func (*FullDemandSync) Pool() int { return poolFullDemandSync }

// Clear implements transport.Recycled. Units belongs to the sender.
func (m *FullDemandSync) Clear() {
	clear(m.Demand)
	clear(m.Held)
	*m = FullDemandSync{Demand: m.Demand[:0], Held: m.Held[:0]}
}

// Pool implements transport.Recycled.
func (*AgentHeartbeat) Pool() int { return poolAgentHeartbeat }

// Clear implements transport.Recycled.
func (m *AgentHeartbeat) Clear() {
	clear(m.Allocations)
	*m = AgentHeartbeat{Allocations: m.Allocations[:0]}
}

// Keep returns msg in a form that outlives the handler (or Tap) it was
// handed to: a pooled pointer message becomes its value form with the owned
// payload cloned, anything else is returned as it is. It is the copy the
// lifetime contract asks of a receiver that records messages whole.
func Keep(msg any) any {
	switch t := msg.(type) {
	case *RegisterApp:
		return *t
	case *DemandUpdate:
		c := *t
		c.Returns = slices.Clone(t.Returns)
		c.Deltas = slices.Clone(t.Deltas)
		return c
	case *GrantUpdate:
		c := *t
		c.Changes = slices.Clone(t.Changes)
		return c
	case *UnregisterApp:
		return *t
	case *UnregisterAck:
		return *t
	case *CapacityDelta:
		c := *t
		c.Entries = slices.Clone(t.Entries)
		return c
	case *JobAdmit:
		return *t
	case *JobAdmitAck:
		return *t
	case *FullDemandSync:
		c := *t
		c.Demand = slices.Clone(t.Demand)
		c.Held = slices.Clone(t.Held)
		return c
	case *AgentHeartbeat:
		c := *t
		c.Allocations = slices.Clone(t.Allocations)
		return c
	}
	return msg
}
