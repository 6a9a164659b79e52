package scale

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// golden pins what one smoke lane computes in virtual time at seed 1.
type golden struct {
	Decisions, Grants, Revokes  uint64
	MessagesSent, EventsFired   uint64
	CompletedApps               int
	GatewayHash, ReplayHash     string
	QueryChecksum               uint64
	DecisionStreamHash          string
	LatencyMeanMS, LatencyMaxMS float64
}

// smokeGolden was recorded at the commit before scale.Lanes existed (PR 13),
// by running each lane's smoke Config constructor directly: a refactor of
// the harness, the lane table or the scheduler under them must leave every
// row byte-identical.
//
// One cell moved since, in PR 24: dataplane's DecisionStreamHash was
// cbf29ce484222325 — the FNV-1a offset basis, i.e. the hash of nothing —
// because dpJob's OnGrant/OnRevoke never folded their decisions, so the row
// pinned nothing about which grants the lane made. Every job now goes through
// the one observed-decision path (harness.granted/revoked) and the cell is the
// hash of the lane's 214 decisions; the row's counts did not move.
// TestSmokeHashesPinDecisions keeps the old value from coming back.
//
// Two more moves since: the master sends an agent one CapacityDelta per
// scheduling step, a release and the regrant it enables together, where it
// used to send the releases as a message of their own. That moved
// MessagesSent and EventsFired on every lane but dataplane, and obs's
// QueryChecksum (its sampled series count messages); no decision moved. And
// a promoted successor resumes scheduling once every machine and
// checkpointed app has reported rather than after the whole recovery
// window: replay's and chaos's decisions move with that, failover's do not
// (machines are dead at each of its promotions, so the window's deadline
// still ends them).
//
// Then an application master and FuxiMaster came to say one thing per step:
// an app's instant of demand travels as one DemandUpdate carrying every unit
// it asked for, flushed at the instant's end behind its returns, and a step
// answers each app with one GrantUpdate carrying every unit it decided for.
// That moved MessagesSent on every lane whose jobs have several units, and
// EventsFired on every lane: fewer deliveries, and one end-of-instant flush
// for a job whose first demand used to leave at once (gateway and replay jobs
// have one unit, so their messages do not move and their events rise). No
// decision moved — every hash and checksum stayed the parent's.
//
// And a finishing job sends its unregister alone: the returns and demand of
// its last instant are dropped, not flushed ahead of it, since the master's
// unregister releases everything the job holds. That removes a message from
// every job that ends with a return (classic, dataplane, replay, gateway,
// failover). On gateway and failover it moves decisions too: the containers
// of that last return are freed by the unregister, which reassigns freed
// capacity in ledger order — unit by unit, machine by machine — where the
// return batch had freed them, and reassigned, in the order they were
// returned.
//
// Then an instant's returns came to travel in its DemandUpdate instead of a
// message of their own. Every instant in which one job both returned and
// asked lost a message and its delivery event, and nothing else moved on the
// lanes that batch into rounds: the round took the returns and the demand
// together either way. The rows say why beside each moved cell.
//
// Then the master came to send each agent one CapacityDelta per instant
// instead of one per step: the entries of every step of an instant join the
// agent's one open message, which an end-of-instant event sends. Lanes whose
// zero-width rounds land several at one instant (classic, failover, gateway,
// replay) lose the merged messages and their deliveries; every lane gains one
// flush event per instant in which the master touched an agent, inside the
// counted window. No decision, hash, checksum or latency moved. The rows say
// what moved beside each.
//
// The latency columns were recorded at the commit before the application
// master came to clock demand-to-grant itself, and did not move with it.
var smokeGolden = map[string]golden{
	// One capacity message per agent per instant: messages 16,165 → 14,107,
	// events 31,455 → 29,628.
	"classic": {6808, 6404, 404, 14107, 29628, 100, "", "", 0x0, "21baea0118bb30a5", 10605.432647922551, 35300.2},
	// One capacity message per agent per instant: messages 14,239 → 12,346,
	// events 27,672 → 25,910.
	"failover": {6828, 6414, 414, 12346, 25910, 100, "", "", 0x0, "2a97d21b65a7f6c6", 10097.651176983241, 29289.6},
	// 2,639 instants returned and asked: messages 15,980 and events 33,896 each fall by that.
	// One flush event per instant that touched an agent: events 31,257 → 31,467.
	"churn": {12701, 12701, 0, 13341, 31467, 0, "", "", 0x0, "49a852947b28de7d", 253.56915887850465, 41454},
	// One capacity message per agent per instant: messages 83,894 → 73,440,
	// events 148,615 → 139,120.
	"gateway": {14516, 14223, 293, 73440, 139120, 6965, "f7cf980f895a0dc8", "", 0x0, "f95f141fb5ad0122", 3493.168812904933, 16320},
	// Immediate mode: 16 merged instants, and each one's two dispatches became
	// one, so 46 capacity deltas to the agents merged too — messages 3,307 and
	// events 9,252 each fall by 62; the decisions do not move.
	//
	// The lane's jobs now run on JobMasters, whose worker protocol (a work
	// plan, two worker statuses, an assignment and its reports, a stop per
	// instance) doubled messages 3,245 and events 9,190. The JobMaster places
	// by its own locality, so grants 213, revokes 1 and the hash moved. Its
	// demand stays pinned to the machine holding an instance's input even
	// while that machine is down: one T4 instance waited 6 s for its
	// upstream's crashed machine to return, where dpJob asked at rack level
	// (latency mean 0.4 ms, max 0.4 ms). Admission, and its hash, did not move.
	//
	// One flush event per instant that touched an agent: events 16,580 → 16,634.
	"dataplane": {218, 215, 3, 6514, 16634, 14, "ebea3147a48d748a", "", 0x0, "110d43206f76d86c", 162.82702702702701, 6010.2},
	// 18 instants returned and asked: messages 63,027 and events 121,553 each fall by that.
	// One capacity message per agent per instant: messages 63,009 → 60,977;
	// its rounds mostly touch agents at instants of their own, so the flush
	// events outnumber the merged deliveries: events 121,535 → 126,388.
	"replay": {11470, 11463, 7, 60977, 126388, 4110, "b6e4f88a5389ab74", "b6e4f88a5389ab74", 0x0, "8198ae00d57dd4a8", 1.460962273276889, 1146.442},
	// 2,758 instants returned and asked: messages 16,969 and events 34,965 each fall by that.
	// One flush event per instant that touched an agent: events 32,207 → 32,425.
	"chaos": {12842, 12688, 154, 14211, 32425, 0, "", "", 0x0, "b0db56e70a254402", 1756.9008835341501, 42954},
	// 2,639 instants, as churn: messages 16,012 and events 33,974 each fall by
	// that; the query checksum did not move. As churn, one flush event per
	// instant that touched an agent: events 31,335 → 31,545. A round flushes
	// its capacity messages before it samples, so net.sent and the query
	// checksum read what they read when the round sent them itself.
	"obs": {12701, 12701, 0, 13373, 31545, 0, "", "", 0x3f6b06b8ef229535, "49a852947b28de7d", 253.56915887850465, 41454},
}

var smokeRuns struct {
	once sync.Once
	res  map[string]*Result
	err  error
}

// smokeResults runs every lane's smoke configuration once per test binary
// (seed 1, decision-stream hash on); the eight runs take about a second.
func smokeResults(t *testing.T) map[string]*Result {
	t.Helper()
	smokeRuns.once.Do(func() {
		smokeRuns.res = map[string]*Result{}
		for _, l := range Lanes {
			if l.Smoke == nil {
				continue
			}
			cfg := l.Smoke()
			cfg.Seed = 1
			cfg.RecordDecisionHash = true
			r, err := Run(cfg)
			if err != nil {
				smokeRuns.err = err
				return
			}
			smokeRuns.res[l.Name] = r
		}
	})
	if smokeRuns.err != nil {
		t.Fatal(smokeRuns.err)
	}
	return smokeRuns.res
}

// goldenOf reads a run's golden row.
func goldenOf(r *Result) golden {
	g := golden{
		Decisions: r.Decisions, Grants: r.Grants, Revokes: r.Revokes,
		MessagesSent: r.MessagesSent, EventsFired: r.EventsFired,
		CompletedApps:      r.CompletedApps,
		DecisionStreamHash: r.DecisionStreamHash,
		LatencyMeanMS:      r.LatencyMeanMS, LatencyMaxMS: r.LatencyMaxMS,
	}
	if r.Gateway != nil {
		g.GatewayHash = r.Gateway.DecisionHash
	}
	if r.Replay != nil {
		g.ReplayHash = r.Replay.DecisionHash
	}
	if r.Obs != nil {
		g.QueryChecksum = r.Obs.QueryChecksum
	}
	return g
}

func TestSmokeLanesMatchGolden(t *testing.T) {
	for name, r := range smokeResults(t) {
		want, ok := smokeGolden[name]
		if !ok {
			t.Errorf("lane %s has no golden row", name)
			continue
		}
		if got := goldenOf(r); got != want {
			t.Errorf("lane %s diverged from its golden row:\n got  %+v\n want %+v", name, got, want)
		}
		if l := LaneByName(name); l.Broken(r) {
			t.Errorf("lane %s: the smoke run breaks the lane's contract", name)
		}
	}
	for name := range smokeGolden {
		if l := LaneByName(name); l == nil || l.Smoke == nil {
			t.Errorf("golden row %s has no smoke lane", name)
		}
	}
}

// TestSmokeHashesPinDecisions: a lane whose jobs bypass the observed-decision
// path ends with the FNV-1a offset basis for a hash, which equals itself
// across any two runs and so passes every determinism check while pinning
// nothing.
func TestSmokeHashesPinDecisions(t *testing.T) {
	empty := fmt.Sprintf("%016x", uint64(fnvOffset))
	for name, r := range smokeResults(t) {
		if r.Decisions > 0 && r.DecisionStreamHash == empty {
			t.Errorf("lane %s: %d decisions hash to the offset basis %s: they were never folded", name, r.Decisions, empty)
		}
	}
}

// TestGatesTripJustPastTheirBound moves each gate's smoke bound onto the
// value the lane's smoke run measured: the gate must stay silent there and
// trip one ulp past it, in the direction its Min flag says.
func TestGatesTripJustPastTheirBound(t *testing.T) {
	res := smokeResults(t)
	mins, maxes := 0, 0
	for _, l := range Lanes {
		r := res[l.Name]
		if r == nil {
			continue // full-size only; its gates are shared with a smoke lane
		}
		for _, g := range l.Gates {
			v := g.Value(r)
			past := math.Nextafter(v, math.Inf(-1))
			if g.Min {
				past = math.Nextafter(v, math.Inf(1))
				mins++
			} else {
				maxes++
			}
			at := Lane{Gates: []Gate{{Name: g.Name, Min: g.Min, Value: g.Value, Smoke: v}}}
			if bad := at.Check(r, true); len(bad) != 0 {
				t.Errorf("%s/%s: silent expected at its bound %v, got %v", l.Name, g.Name, v, bad)
			}
			at.Gates[0].Smoke = past
			if bad := at.Check(r, true); len(bad) != 1 {
				t.Errorf("%s/%s: value %v did not trip bound %v", l.Name, g.Name, v, past)
			}
			// The full bound is read only at full size.
			at.Gates[0].Full = v
			if bad := at.Check(r, false); len(bad) != 0 {
				t.Errorf("%s/%s: full-size check read the smoke bound: %v", l.Name, g.Name, bad)
			}
		}
	}
	if mins == 0 || maxes == 0 {
		t.Errorf("covered %d min and %d max gates, want both", mins, maxes)
	}
}

// TestBudgetsSectionIsConsistent: gates that share a budgets-section key
// across lanes must agree on the paper-scale bound recorded under it.
func TestBudgetsSectionIsConsistent(t *testing.T) {
	b := Budgets()
	// The chaos lane is the churn workload plus a probe and an audit that
	// must allocate nothing: it is held to the churn allocation line.
	if got, ok := b["max_allocs_per_decision_chaos"]; !ok || got != b["max_allocs_per_decision_churn"] {
		t.Errorf("max_allocs_per_decision_chaos = %v (present %v), want the churn bound %v",
			got, ok, b["max_allocs_per_decision_churn"])
	}
	for _, l := range Lanes {
		for _, g := range l.Gates {
			if b[g.Name] != g.Full {
				t.Errorf("%s/%s: full bound %v, budgets section records %v", l.Name, g.Name, g.Full, b[g.Name])
			}
		}
	}
}

// TestCheckedInSectionsAreTheirLanes: every section of the repository's
// BENCH_scale.json records a run of the lane it is named after, at full
// size. Its config is the lane's Full() at the recorded seed, normalised the
// way Run records it (validated), so no section can come from a resized or
// otherwise altered run and then be held to that lane's bounds.
func TestCheckedInSectionsAreTheirLanes(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_scale.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(data, &sections); err != nil {
		t.Fatal(err)
	}
	// canonical decodes one JSON document generically, so two encodings of
	// the same config compare equal field by field.
	canonical := func(raw []byte) map[string]any {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	for name, raw := range sections {
		if name == "budgets" {
			continue
		}
		lane := LaneByName(name)
		if lane == nil {
			t.Errorf("section %q names no lane", name)
			continue
		}
		var sec struct {
			Config json.RawMessage `json:"config"`
		}
		var rec Config
		if err := json.Unmarshal(raw, &sec); err != nil || json.Unmarshal(sec.Config, &rec) != nil {
			t.Errorf("section %q has no readable config", name)
			continue
		}
		want := lane.Full()
		want.Seed = rec.Seed
		if want, err = want.validated(); err != nil {
			t.Errorf("lane %s: %v", name, err)
			continue
		}
		wantRaw, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		got, exp := canonical(sec.Config), canonical(wantRaw)
		for k := range exp {
			if _, ok := got[k]; !ok {
				got[k] = nil
			}
		}
		for k, v := range got {
			if !reflect.DeepEqual(v, exp[k]) {
				t.Errorf("section %q: config %s = %v, but lane %s at full size records %v", name, k, v, name, exp[k])
			}
		}
	}
}
