package scale

import (
	"testing"

	"repro/internal/sim"
)

// slotTables is the length of every table indexed by an endpoint slot or a
// scheduler app ID at the end of a run: the network's slots (its name table
// is as long), the primary scheduler's app tables, and each master process's
// endpoint index and dedup rows.
type slotTables struct {
	Slots, AppSlots, ByEP, DedupRows int
}

// replayTables runs the smoke replay for days compressed days and returns
// its result, its slot tables and the most endpoints it had live at one
// 10 ms sample. The scheduler app tables are the primary's: a process that
// holds no scheduler reports none.
func replayTables(t *testing.T, days int) (*Result, slotTables, int) {
	t.Helper()
	cfg := SmokeReplayConfig()
	cfg.ReplayDays = days
	cfg.Horizon = sim.Time(days)*cfg.ReplayDayLength + 2*sim.Minute
	h, err := newHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	h.eng.Every(10*sim.Millisecond, func() {
		_, live := h.net.Footprint()
		peak = max(peak, live)
	})
	res := h.run()
	if res.Truncated || len(res.Invariants) > 0 {
		t.Fatalf("%d days: truncated=%v invariants=%v", days, res.Truncated, res.Invariants)
	}
	var tb slotTables
	tb.Slots, _ = h.net.Footprint()
	for _, m := range h.cl.Masters {
		if m != nil {
			byEP, rows, apps := m.Footprint()
			tb.ByEP, tb.DedupRows, tb.AppSlots = max(tb.ByEP, byEP), max(tb.DedupRows, rows), max(tb.AppSlots, apps)
		}
	}
	return res, tb, peak
}

// TestLongReplayKeepsNoPerJobSlot runs the smoke replay for two compressed
// days and for 20 (5 under -short) and holds every slot table to the
// endpoints live at once, whatever the day count. The two-day run already
// holds the peak — the failover at 48 s admits the outage's backlog in one
// instant while the jobs it acknowledges retire — so the long run's tables
// may outgrow the short run's by a few cells only (a later burst can top the
// first by a job or two), and none may exceed the long run's sampled peak of
// live endpoints plus what one instant adds between two samples. A network
// that never reuses a finished job's slot keeps one per job ever run: ten
// times as many after 20 days as after two.
func TestLongReplayKeepsNoPerJobSlot(t *testing.T) {
	const (
		instant = 64 // endpoints one instant may add between two samples
		drift   = 8  // how far a later burst may top the first two days'
	)
	days := 20
	if testing.Short() {
		days = 5
	}
	_, short, _ := replayTables(t, 2)
	res, long, peak := replayTables(t, days)
	t.Logf("2 days: %+v; %d days, %d jobs: %+v, peak %d live endpoints", short, days, res.CompletedApps, long, peak)
	for _, c := range []struct {
		what        string
		short, long int
	}{
		{"network slots", short.Slots, long.Slots},
		{"scheduler app tables", short.AppSlots, long.AppSlots},
		{"master endpoint index", short.ByEP, long.ByEP},
		{"master dedup rows", short.DedupRows, long.DedupRows},
	} {
		if c.long > c.short+drift || c.long > peak+instant {
			t.Errorf("%s: %d after %d days, %d after 2, for at most %d live endpoints a sample",
				c.what, c.long, days, c.short, peak)
		}
	}
	if res.CompletedApps < 10*short.Slots {
		t.Errorf("%d jobs completed against %d slots: the run cannot tell a slot per job from a slot per open job",
			res.CompletedApps, short.Slots)
	}
}
