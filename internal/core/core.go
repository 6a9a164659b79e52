// Package core wires the Fuxi components — hot-standby FuxiMaster pair,
// one FuxiAgent per machine, the simulated network, lock service, Pangu DFS
// and metrics — into a Cluster, the library's main entry point. Examples,
// experiment drivers and benchmarks all build on this facade.
package core

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/appmaster"
	"repro/internal/faults"
	"repro/internal/gateway"
	"repro/internal/lockservice"
	"repro/internal/master"
	"repro/internal/metrics"
	"repro/internal/pangu"
	"repro/internal/protocol"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Config assembles a simulated Fuxi cluster.
type Config struct {
	// Racks and MachinesPerRack shape the topology; MachineCapacity
	// defaults to the paper's testbed machine (12 cores, 96 GB).
	Racks           int
	MachinesPerRack int
	MachineCapacity resource.Vector
	// Seed drives all randomness (placement, jitter, faults).
	Seed int64
	// NetLatency is the one-way message latency (default 200µs).
	NetLatency sim.Time
	// NetJitter, DropRate and DupRate inject network imperfection.
	NetJitter sim.Time
	DropRate  float64
	DupRate   float64
	// Master and Agent tune the daemons; zero values take defaults.
	Master master.Config
	Agent  agent.Config
	// Standby controls whether a second (hot-standby) FuxiMaster runs.
	Standby bool
	// Gateway, when set, boots the multi-tenant submission gateway in
	// front of the master pair (see internal/gateway). Jobs submitted
	// through Cluster.Gateway survive master failover: a promoted primary's
	// hello triggers the admit replay.
	Gateway *gateway.Config
}

// Cluster is a fully wired simulated Fuxi deployment.
type Cluster struct {
	Eng     *sim.Engine
	Net     *transport.Net
	Top     *topology.Topology
	Lock    *lockservice.Service
	Ckpt    *master.CheckpointStore
	FS      *pangu.FS
	Metrics *metrics.Registry

	// Masters holds the hot-standby pair (index 1 nil unless Standby).
	Masters [2]*master.Master
	Agents  map[string]*agent.Agent
	// Gateway is the submission front door (nil unless Config.Gateway).
	Gateway *gateway.Gateway
	// Faults injects every fault the cluster suffers — a planned
	// faults.Campaign or one literal faults.Fault — and holds the SlowMachine
	// factors Slowdown reads.
	Faults *faults.Injector
}

// NewCluster builds and boots a cluster. The first master wins the election
// immediately; agents heartbeat from t=0.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Racks <= 0 || cfg.MachinesPerRack <= 0 {
		return nil, fmt.Errorf("core: topology must be positive, got %d racks x %d", cfg.Racks, cfg.MachinesPerRack)
	}
	capVec := cfg.MachineCapacity
	if capVec.IsZero() {
		capVec = topology.PaperTestbedMachine()
	}
	top, err := topology.Build(topology.Spec{
		Racks: cfg.Racks, MachinesPerRack: cfg.MachinesPerRack,
		MachineCapacity:   capVec,
		Disks:             12,
		DiskBandwidthMBps: 100,
		NetBandwidthMBps:  250,
	})
	if err != nil {
		return nil, err
	}

	eng := sim.NewEngine(cfg.Seed)
	net := transport.NewNet(eng)
	if cfg.NetLatency > 0 {
		net.Latency = cfg.NetLatency
	}
	net.Jitter = cfg.NetJitter
	net.DropRate = cfg.DropRate
	net.DupRate = cfg.DupRate

	c := &Cluster{
		Eng:     eng,
		Net:     net,
		Top:     top,
		Lock:    lockservice.New(eng),
		Ckpt:    master.NewCheckpointStore(),
		FS:      pangu.New(top, eng.Rand()),
		Metrics: metrics.NewRegistry(),
		Agents:  make(map[string]*agent.Agent, top.Size()),
		Faults:  faults.NewInjector(eng, net, top.Size()),
	}

	if cfg.Gateway != nil {
		// The gateway boots before the masters so a primary promoting at
		// t=0 already finds the endpoint registered.
		c.Gateway = gateway.New(*cfg.Gateway, eng, net)
	}

	mcfg := cfg.Master
	if mcfg.LockName == "" {
		mcfg = master.DefaultConfig("fm-1")
		mcfg.Sched = cfg.Master.Sched
		if cfg.Master.BatchWindow > 0 {
			mcfg.BatchWindow = cfg.Master.BatchWindow
		}
	}
	if cfg.Gateway != nil {
		// Gateway priority classes map onto scheduler quota groups; make
		// sure they exist (zero minimum = usage accounting only) so
		// gateway-admitted jobs can register under them.
		if mcfg.Sched.Groups == nil {
			mcfg.Sched.Groups = make(map[string]resource.Vector, gateway.NumClasses)
		}
		for cl := gateway.Class(0); cl < gateway.NumClasses; cl++ {
			if _, ok := mcfg.Sched.Groups[cl.QuotaGroup()]; !ok {
				mcfg.Sched.Groups[cl.QuotaGroup()] = resource.Vector{}
			}
		}
	}
	// Each process reaches the lock service unless a LockPartition fault has
	// cut it off (or the caller models reachability itself).
	newMaster := func(i int, name string) {
		mi := mcfg
		mi.ProcessName = name
		if mi.LockReachable == nil {
			mi.LockReachable = func() bool { return c.Faults.LockReachable(i) }
		}
		c.Masters[i] = master.NewMaster(mi, eng, net, c.Lock, top, c.Ckpt, c.Metrics)
	}
	newMaster(0, "fm-1")
	if cfg.Standby {
		newMaster(1, "fm-2")
	}
	c.Faults.Masters = c.Masters[:]

	acfg := cfg.Agent
	if acfg.HeartbeatInterval == 0 {
		acfg = agent.DefaultConfig()
		if cfg.Agent.WorkerStartDelay > 0 {
			acfg.WorkerStartDelay = cfg.Agent.WorkerStartDelay
		}
	}
	for _, name := range top.Machines() {
		c.Agents[name] = agent.New(acfg, eng, net, top.Machine(name))
		c.Faults.Agents = append(c.Faults.Agents, c.Agents[name])
	}
	return c, nil
}

// Primary returns the current primary master (nil during an interregnum).
func (c *Cluster) Primary() *master.Master { return master.Primary(c.Masters[:]...) }

// Scheduler returns the live scheduler of the primary (nil during
// failover).
func (c *Cluster) Scheduler() *master.Scheduler {
	if p := c.Primary(); p != nil {
		return p.Scheduler()
	}
	return nil
}

// NewAppMaster starts an application master on the cluster.
func (c *Cluster) NewAppMaster(cfg appmaster.Config, cb appmaster.Callbacks) *appmaster.AM {
	return appmaster.New(cfg, c.Eng, c.Net, c.Top, cb)
}

// Run advances virtual time by d.
func (c *Cluster) Run(d sim.Time) { c.Eng.Run(c.Eng.Now() + d) }

// Now returns current virtual time.
func (c *Cluster) Now() sim.Time { return c.Eng.Now() }

// KillPrimaryMaster crashes whichever master process currently leads and
// returns it (nil when none leads).
func (c *Cluster) KillPrimaryMaster() *master.Master {
	p := c.Primary()
	if p != nil {
		p.Crash()
	}
	return p
}

// KillMachine halts a node entirely (processes die, heartbeats stop).
func (c *Cluster) KillMachine(name string) {
	if a := c.Agents[name]; a != nil {
		a.CrashMachine()
	}
}

// RestartMachine reboots a halted node.
func (c *Cluster) RestartMachine(name string) {
	if a := c.Agents[name]; a != nil {
		a.RestartMachine()
	}
}

// FMPlanned returns the scheduler's planned (granted) total, or zero during
// failover — the paper's FM_planned curve.
func (c *Cluster) FMPlanned() resource.Vector {
	if s := c.Scheduler(); s != nil {
		return s.PlannedTotal()
	}
	return resource.Vector{}
}

// FMTotal returns total schedulable capacity — the paper's FM_total curve.
func (c *Cluster) FMTotal() resource.Vector {
	if s := c.Scheduler(); s != nil {
		return s.TotalCapacity()
	}
	return resource.Vector{}
}

// FAPlanned sums the process plans of all live agents — the paper's
// FA_planned curve ("FuxiAgent receives process plan from application
// master and FA_planned shows the total resources consumed by all these
// processes"). Starting (still downloading) processes count: their
// resources are already committed on the machine.
func (c *Cluster) FAPlanned() resource.Vector {
	var t resource.Vector
	for _, a := range c.Agents {
		if !a.Up() {
			continue
		}
		for _, p := range a.Procs() {
			if p.State == protocol.WorkerRunning || p.State == protocol.WorkerStarting {
				t = t.Add(p.Size)
			}
		}
	}
	return t
}
