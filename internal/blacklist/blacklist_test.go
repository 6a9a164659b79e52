package blacklist

import "testing"

// m1 is the machine the tests mark.
const m1 int32 = 1

// markTask records instanceThreshold distinct failures of task on machine,
// numbered from first, and reports whether one of them escalated it to the
// job level.
func markTask(b *MultiLevel, task string, first int, machine int32) bool {
	escalated := false
	for i := first; i < first+instanceThreshold; i++ {
		if b.RecordFailure(task, i, machine) {
			escalated = true
		}
	}
	return escalated
}

func TestInstanceToTaskEscalation(t *testing.T) {
	b := New()
	b.RecordFailure("t1", 1, m1)
	b.RecordFailure("t1", 2, m1)
	if b.TaskBlacklisted("t1", m1) {
		t.Fatal("blacklisted below threshold")
	}
	b.RecordFailure("t1", 3, m1)
	if !b.TaskBlacklisted("t1", m1) {
		t.Fatal("not blacklisted at threshold")
	}
	// Other tasks are unaffected.
	if b.TaskBlacklisted("t2", m1) {
		t.Error("task blacklist leaked across tasks")
	}
}

func TestSameInstanceRepeatCountsOnce(t *testing.T) {
	b := New()
	for i := 0; i < 10; i++ {
		b.RecordFailure("t1", 7, m1) // same instance repeatedly
	}
	if b.TaskBlacklisted("t1", m1) {
		t.Error("one flapping instance blacklisted the machine (wants distinct instances)")
	}
}

func TestTaskToJobEscalation(t *testing.T) {
	b := New()
	escalations := 0
	mark := func(task string) {
		if markTask(b, task, 1, m1) {
			escalations++
		}
	}
	mark("t1")
	if !b.TaskBlacklisted("t1", m1) || b.JobBlacklisted(m1) {
		t.Fatal("job-level too early")
	}
	mark("t2")
	if !b.JobBlacklisted(m1) {
		t.Fatal("no job-level escalation")
	}
	mark("t3")
	if escalations != 1 {
		t.Errorf("escalation signals = %d, want exactly 1", escalations)
	}
	// Job-level ban applies to every task.
	if !b.TaskBlacklisted("t99", m1) {
		t.Error("job ban not global")
	}
}

func TestMaxPerTaskBound(t *testing.T) {
	b := New()
	for m := 0; m <= maxPerTask; m++ {
		markTask(b, "t1", 1, int32(m))
	}
	if b.TaskBlacklist("t1") != maxPerTask {
		t.Errorf("task blacklist = %d, want capped at %d", b.TaskBlacklist("t1"), maxPerTask)
	}
	if b.TaskBlacklisted("t1", maxPerTask) {
		t.Error("cap exceeded")
	}
}

// TestZeroConfigDefaultsSane: a fresh tracker waits for the framework's
// thresholds. One failure escalates nothing (New once clamped zero
// thresholds to one, which escalated a machine at its first failure).
func TestZeroConfigDefaultsSane(t *testing.T) {
	b := New()
	if b.RecordFailure("t1", 1, m1) || b.TaskBlacklisted("t1", m1) || b.JobBlacklist() != 0 {
		t.Error("a single failure escalated the machine")
	}
}

// TestDefaultConfig pins the framework's thresholds at their edges: the
// third distinct instance blacklists a machine for its task, the second
// task for the job.
func TestDefaultConfig(t *testing.T) {
	b := New()
	for i := 1; i < instanceThreshold; i++ {
		b.RecordFailure("t1", i, m1)
	}
	if b.TaskBlacklisted("t1", m1) {
		t.Fatalf("task blacklisted after %d instances, want %d", instanceThreshold-1, instanceThreshold)
	}
	b.RecordFailure("t1", instanceThreshold, m1)
	if !b.TaskBlacklisted("t1", m1) || b.JobBlacklisted(m1) {
		t.Fatalf("after %d instances of one task: task %v, job %v; want true, false",
			instanceThreshold, b.TaskBlacklisted("t1", m1), b.JobBlacklisted(m1))
	}
	if !markTask(b, "t2", 1, m1) {
		t.Error("the second task did not escalate the machine to the job")
	}
}
