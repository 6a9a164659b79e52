package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/gateway"
	"repro/internal/invariant"
	"repro/internal/master"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Layer probes call one layer's public functions directly, on fixed input
// at the workloads' scale, and report the fastest of probeReps attempts.
// They are the per-layer numbers a change to that layer should move first.
// Each probe's comment says which of its constants come from a workload's
// configuration or a measured run and which are only a convenient size.
const probeReps = 3

// paperSpec is the 5,000-machine cluster every probe that needs one builds.
var paperSpec = topology.Spec{
	Racks: 125, MachinesPerRack: 40, MachineCapacity: topology.PaperTestbedMachine(),
}

// probe is one attempt: it prepares its input untimed and returns the
// metrics of the timed part.
type probe struct {
	name string
	run  func(seed int64) (map[string]float64, error)
}

var probes = []probe{
	{"sim", probeSim},
	{"transport", probeTransport},
	{"scheduler", probeScheduler},
	{"register", probeRegister},
	{"checkpoint", probeCheckpoint},
	{"gateway", probeGateway},
	{"topology", probeTopology},
}

// runProbes runs every probe probeReps times and keeps, per metric, the
// smallest value: every probe metric is a cost.
func runProbes(seed int64, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range probes {
		id := tr.begin("probe:"+p.name, 0)
		for i := 1; i <= probeReps; i++ {
			runtime.GC()
			call := tr.begin(p.name, i)
			m, err := p.run(seed)
			tr.end(call)
			if err != nil {
				tr.end(id)
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			for k, v := range m {
				if old, ok := out[k]; !ok || v < old {
					out[k] = v
				}
			}
		}
		tr.end(id)
	}
	return out, nil
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// probeSim fires 2M events through the engine in the churn workload's mix.
// Churn (seed 1) fires 2.86 events per decision: 1.84 message deliveries
// 200 µs out, one 5 s hold expiry per grant, and under 0.1 of anything else
// (round and heartbeat timers, left out here). Deliveries and hold expiries
// both go through the closure-free Post path. So five events in eight are
// deliveries, three are hold timers, and 100k are in flight: one per held
// unit.
func probeSim(seed int64) (map[string]float64, error) {
	const events, inFlight = 2_000_000, 100_000
	eng := sim.NewEngine(seed)
	left := events
	var fire func(any)
	next := func() {
		if left <= 0 {
			return
		}
		left--
		if left%8 < 3 {
			eng.Post(5*sim.Second, fire, nil)
		} else {
			eng.Post(200*sim.Microsecond, fire, nil)
		}
	}
	fire = func(any) { next() }
	for i := 0; i < inFlight; i++ {
		next()
	}
	start := time.Now()
	fired := eng.RunUntilIdle()
	d := time.Since(start)
	if fired != events {
		return nil, fmt.Errorf("fired %d events, want %d", fired, events)
	}
	return map[string]float64{"sim.ns_per_event": nsPer(d, events)}, nil
}

// probeTransport sends 1M messages from the master endpoint to 5,000 agent
// endpoints and delivers them: one by one (how the master sends capacity
// deltas), in batches of eight, and one by one with the chaos workload's
// conditions on (2% of the agents isolated as in its storms, per-link
// counters enabled). Eight is only a size at which the batched path's
// saving per message shows; it is not the workloads' batch size, which
// cannot be read from outside: transport.msgs_per_batch is all messages
// per multi-message batch (28 on churn), singles included.
func probeTransport(seed int64) (map[string]float64, error) {
	const rounds = 200
	top, err := topology.Build(paperSpec)
	if err != nil {
		return nil, err
	}
	machines := top.Machines()
	total := rounds * len(machines)
	var msg transport.Message = protocol.CapacityDelta{}

	setup := func() (*sim.Engine, *transport.Net, transport.EndpointID, []transport.EndpointID, *int) {
		eng := sim.NewEngine(seed)
		net := transport.NewNet(eng)
		got := new(int)
		from := net.Register("fuximaster", func(transport.EndpointID, transport.Message) {})
		to := make([]transport.EndpointID, len(machines))
		for i, m := range machines {
			to[i] = net.Register(protocol.AgentEndpoint(m), func(transport.EndpointID, transport.Message) { *got++ })
		}
		return eng, net, from, to, got
	}
	single := func(net *transport.Net, eng *sim.Engine, from transport.EndpointID, to []transport.EndpointID) time.Duration {
		start := time.Now()
		for r := 0; r < rounds; r++ {
			for _, ep := range to {
				net.SendID(from, ep, msg)
			}
			eng.Run(eng.Now() + sim.Millisecond)
		}
		return time.Since(start)
	}
	out := map[string]float64{}

	eng, net, from, to, got := setup()
	out["transport.ns_per_msg"] = nsPer(single(net, eng, from, to), total)
	if *got != total {
		return nil, fmt.Errorf("clean links delivered %d of %d", *got, total)
	}

	eng, net, from, to, got = setup()
	batch := make([]transport.Message, 8)
	for i := range batch {
		batch[i] = msg
	}
	start := time.Now()
	for r := 0; r < rounds/len(batch); r++ {
		for _, ep := range to {
			net.SendBatchID(from, ep, batch)
		}
		eng.Run(eng.Now() + sim.Millisecond)
	}
	out["transport.ns_per_msg_batched"] = nsPer(time.Since(start), total)
	if *got != total {
		return nil, fmt.Errorf("batched links delivered %d of %d", *got, total)
	}

	eng, net, from, to, got = setup()
	net.EnableLinkStats()
	cut := len(machines) / 50
	victims := make([]string, cut)
	for i := range victims {
		victims[i] = protocol.AgentEndpoint(machines[i*50])
	}
	net.Isolate(victims)
	out["transport.ns_per_msg_ruled"] = nsPer(single(net, eng, from, to), total)
	if want := rounds * (len(machines) - cut); *got != want {
		return nil, fmt.Errorf("ruled links delivered %d, want %d", *got, want)
	}
	return out, nil
}

// saturate registers apps whose standing demand is 2.4× the cluster, so
// every sweep walks a populated locality tree (the regime of §5.2).
func saturate(top *topology.Topology, apps int) (*master.Scheduler, []string, error) {
	s := master.NewScheduler(top, master.Options{})
	names := make([]string, apps)
	perApp := top.Size() * 12 / (5 * apps)
	for i := range names {
		names[i] = fmt.Sprintf("app-%02d", i)
		if err := s.RegisterApp(names[i], "", []resource.ScheduleUnit{
			{ID: 1, Priority: 10 + i%3, MaxCount: 1 << 30, Size: resource.New(1000, 4096)},
		}); err != nil {
			return nil, nil, err
		}
		if _, err := s.UpdateDemand(names[i], 1, []resource.LocalityHint{
			{Type: resource.LocalityCluster, Count: perApp}}); err != nil {
			return nil, nil, err
		}
	}
	return s, names, nil
}

// probeScheduler drives the scheduling kernel alone — no simulator, no
// transport — through saturated rounds on 5,000 machines: one app returns
// everything it holds, the freed machines are swept, the app restates its
// demand. It then times the invariant checker's walk over that scheduler.
func probeScheduler(int64) (map[string]float64, error) {
	const rounds, apps = 200, 50
	top, err := topology.Build(paperSpec)
	if err != nil {
		return nil, err
	}
	s, names, err := saturate(top, apps)
	if err != nil {
		return nil, err
	}
	machines := top.Machines()
	var freed []string
	decisions := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		app := names[r%apps]
		released := 0
		freed = freed[:0]
		granted := s.Granted(app, 1)
		for _, m := range machines { // map order must not reach the scheduler
			if n := granted[m]; n > 0 {
				if err := s.Release(app, 1, m, n); err != nil {
					return nil, err
				}
				released += n
				freed = append(freed, m)
			}
		}
		decisions += len(s.AssignOn(freed))
		ds, err := s.UpdateDemand(app, 1, []resource.LocalityHint{
			{Type: resource.LocalityCluster, Count: released}})
		if err != nil {
			return nil, err
		}
		decisions += len(ds)
	}
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	if decisions == 0 {
		return nil, fmt.Errorf("saturated rounds made no decisions")
	}

	chk := &invariant.Checker{Top: top, Sched: func() *master.Scheduler { return s }}
	start = time.Now()
	bad := chk.CheckScheduler()
	check := time.Since(start)
	if len(bad) > 0 {
		return nil, fmt.Errorf("invariant violations after probe rounds: %v", bad)
	}
	return map[string]float64{
		"master.sched_ns_per_decision":     nsPer(d, decisions),
		"master.sched_allocs_per_decision": float64(after.Mallocs-before.Mallocs) / float64(decisions),
		"invariant.check_ms":               float64(check.Nanoseconds()) / 1e6,
	}, nil
}

// appUnits is one application's 40 schedule units, as the failover
// workload registers them.
func appUnits(app int) []resource.ScheduleUnit {
	units := make([]resource.ScheduleUnit, 40)
	for u := range units {
		units[u] = resource.ScheduleUnit{
			ID: u + 1, Priority: 1 + (app+u)%4, MaxCount: 3,
			Size: resource.New(250<<uint((app+u)%3), 1024<<uint((app+u)%3)),
		}
	}
	return units
}

// probeRegister registers and unregisters 2,500 40-unit apps on an idle
// 5,000-machine scheduler: the master's arrival/completion path.
func probeRegister(int64) (map[string]float64, error) {
	const apps = 2500
	top, err := topology.Build(paperSpec)
	if err != nil {
		return nil, err
	}
	s := master.NewScheduler(top, master.Options{})
	names := make([]string, apps)
	units := make([][]resource.ScheduleUnit, apps)
	for i := range names {
		names[i] = fmt.Sprintf("scale-app-%04d", i)
		units[i] = appUnits(i)
	}
	start := time.Now()
	for i, n := range names {
		if err := s.RegisterApp(n, "", units[i]); err != nil {
			return nil, err
		}
	}
	for _, n := range names {
		s.UnregisterApp(n)
	}
	d := time.Since(start)
	return map[string]float64{"master.register_us_per_app": nsPer(d, apps) / 1e3}, nil
}

// probeCheckpoint writes 2,500 app records and removes half of them, then
// loads the store the way a promoted standby does (anchor + delta replay).
func probeCheckpoint(int64) (map[string]float64, error) {
	const apps = 2500
	cfgs := make([]master.AppConfig, apps)
	for i := range cfgs {
		cfgs[i] = master.AppConfig{Name: fmt.Sprintf("scale-app-%04d", i), Units: appUnits(i)}
	}
	store := master.NewCheckpointStore()
	start := time.Now()
	for _, a := range cfgs {
		store.SaveApp(a)
	}
	for i := 0; i < apps; i += 2 {
		store.RemoveApp(cfgs[i].Name)
	}
	write := time.Since(start)
	start = time.Now()
	snap := store.Load()
	load := time.Since(start)
	if len(snap.Apps) != apps/2 {
		return nil, fmt.Errorf("loaded %d apps, want %d", len(snap.Apps), apps/2)
	}
	return map[string]float64{
		"master.ckpt_ns_per_write": nsPer(write, store.Writes),
		"master.ckpt_load_ms":      float64(load.Nanoseconds()) / 1e6,
	}, nil
}

// probeGateway submits 200k jobs drawn from a million tenants with the
// replay workload's skew (a fifth of the submissions from 200 hot tenants)
// through every admission check. The global backlog cap is lifted so no
// submission takes the early backlog-shed exit.
func probeGateway(seed int64) (map[string]float64, error) {
	const jobs, tenants, hot = 200_000, 1_000_000, 200
	rng := rand.New(rand.NewSource(seed))
	batch := make([]gateway.Job, jobs)
	for i := range batch {
		t := rng.Intn(tenants)
		if rng.Intn(100) < 20 {
			t = rng.Intn(hot)
		}
		class := gateway.ClassBatch
		if t%5 == 0 {
			class = gateway.ClassService
		}
		batch[i] = gateway.Job{ID: fmt.Sprintf("job-%07d", i), Tenant: fmt.Sprintf("tenant-%07d", t), Class: class}
	}
	eng := sim.NewEngine(seed)
	lim := gateway.DefaultLimits()
	lim.MaxQueued = 0
	gw := gateway.New(gateway.Config{Limits: lim}, eng, transport.NewNet(eng))
	queued := 0
	start := time.Now()
	for _, j := range batch {
		if gw.Submit(j) == gateway.DecisionQueued {
			queued++
		}
	}
	d := time.Since(start)
	if queued == 0 || queued == jobs {
		return nil, fmt.Errorf("queued %d of %d: the rate limiter was not exercised", queued, jobs)
	}
	return map[string]float64{"gateway.ns_per_submit": nsPer(d, jobs)}, nil
}

func probeTopology(int64) (map[string]float64, error) {
	start := time.Now()
	top, err := topology.Build(paperSpec)
	d := time.Since(start)
	if err != nil {
		return nil, err
	}
	if top.Size() != 5000 {
		return nil, fmt.Errorf("built %d machines", top.Size())
	}
	return map[string]float64{"topology.build_ms": float64(d.Nanoseconds()) / 1e6}, nil
}
