package core

// This file holds the machine reboot: exported for this package's tests, which read
// it, and called by no shipped code.

// RestartMachine reboots a halted node.
func (c *Cluster) RestartMachine(name string) {
	if a := c.Agent(name); a != nil {
		a.RestartMachine()
	}
}
