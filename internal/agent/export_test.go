package agent

// PlanMarks returns how many work-plan sequence marks the daemon keeps, for
// the tests in package agent_test.
func (a *Agent) PlanMarks() int { return len(a.planSeen) }
