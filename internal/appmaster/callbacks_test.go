package appmaster

import (
	"repro/internal/protocol"
	"repro/internal/transport"
)

// cbFuncs adapts func literals to Callbacks for tests that react to an event
// or two; nil fields ignore theirs.
type cbFuncs struct {
	Grant   func(unitID int, machine int32, count int)
	Revoke  func(unitID int, machine int32, count int)
	Worker  func(protocol.WorkerStatus)
	Message func(from transport.EndpointID, msg any)
}

func (c cbFuncs) OnGrant(unitID int, machine int32, count int) {
	if c.Grant != nil {
		c.Grant(unitID, machine, count)
	}
}

func (c cbFuncs) OnRevoke(unitID int, machine int32, count int) {
	if c.Revoke != nil {
		c.Revoke(unitID, machine, count)
	}
}

func (c cbFuncs) OnWorker(s protocol.WorkerStatus) {
	if c.Worker != nil {
		c.Worker(s)
	}
}

func (c cbFuncs) OnMessage(from transport.EndpointID, msg any) {
	if c.Message != nil {
		c.Message(from, msg)
	}
}
