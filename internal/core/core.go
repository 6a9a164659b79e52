// Package core wires the Fuxi components — hot-standby FuxiMaster pair,
// one FuxiAgent per machine, the simulated network, lock service, Pangu DFS,
// submission gateway and fault injector — into a Cluster, the
// library's main entry point. NewCluster is the only assembler: examples,
// experiment drivers, benchmarks and the paper-scale harness (internal/scale)
// all build on it.
package core

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/appmaster"
	"repro/internal/faults"
	"repro/internal/gateway"
	"repro/internal/lockservice"
	"repro/internal/master"
	"repro/internal/pangu"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
)

// Config assembles a simulated Fuxi cluster. Its network delivers every
// message after a 200µs one-way latency, same-instant messages in send order,
// which the incremental protocol's happy path assumes; loss and duplication
// are the network's own instruments (DropRate, DupRate and link rules), set
// on Cluster.Net after NewCluster.
type Config struct {
	// Racks and MachinesPerRack shape the topology; MachineCapacity
	// defaults to the paper's testbed machine (12 cores, 96 GB).
	Racks           int
	MachinesPerRack int
	MachineCapacity resource.Vector
	// Seed drives all randomness (placement, jitter, faults).
	Seed int64
	// Master and Agent configure the daemons; their failure thresholds and
	// periods are the packages' constants. The pair's process names are the
	// assembler's: fm-1 and fm-2.
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
	Eng  *sim.Engine
	Net  *transport.Net
	Top  *topology.Topology
	Lock *lockservice.Service
	Ckpt *master.CheckpointStore
	FS   *pangu.FS

	// Masters holds the hot-standby pair (index 1 nil unless Standby).
	Masters [2]*master.Master
	// Agents holds one FuxiAgent per machine, indexed by dense machine ID.
	Agents []*agent.Agent
	// Gateway is the submission front door (nil unless Config.Gateway).
	Gateway *gateway.Gateway
	// Faults injects every fault the cluster suffers — a planned
	// faults.Campaign or one literal faults.Fault — and holds the SlowMachine
	// factors Slowdown reads.
	Faults *faults.Injector
}

// electionSettle is how long NewCluster runs the engine between booting the
// masters and the agents: the first master holds the lease and has bumped
// the checkpoint epoch before any agent says hello.
const electionSettle = 10 * sim.Millisecond

// NewCluster builds and boots a cluster — the only place one is wired. The
// order is fixed, because every decision-stream hash depends on it: gateway
// (so the epoch-1 promotion already finds its endpoint registered), the
// master pair, the election settle, then the agents in machine-ID order. It
// returns at virtual time electionSettle with the first master primary and
// every agent about to send its first heartbeat.
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

	c := &Cluster{
		Eng:    eng,
		Net:    net,
		Top:    top,
		Lock:   lockservice.New(eng),
		Ckpt:   master.NewCheckpointStore(),
		FS:     pangu.New(top, eng.Rand()),
		Agents: make([]*agent.Agent, 0, top.Size()),
		Faults: faults.NewInjector(eng, net, top.Size()),
	}

	if cfg.Gateway != nil {
		c.Gateway = gateway.New(*cfg.Gateway, eng, net)
	}

	mcfg := cfg.Master
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
		c.Masters[i] = master.NewMaster(mi, eng, net, c.Lock, top, c.Ckpt)
	}
	newMaster(0, "fm-1")
	if cfg.Standby {
		newMaster(1, "fm-2")
	}
	c.Faults.Masters = c.Masters[:]
	eng.Run(electionSettle)

	for _, name := range top.Machines() {
		c.Agents = append(c.Agents, agent.New(cfg.Agent, eng, net, top.Machine(name)))
	}
	c.Faults.Agents = c.Agents
	return c, nil
}

// Agent returns the named machine's FuxiAgent (nil for a name outside the
// topology).
func (c *Cluster) Agent(machine string) *agent.Agent {
	if id := c.Top.MachineID(machine); id >= 0 {
		return c.Agents[id]
	}
	return nil
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
	if a := c.Agent(name); a != nil {
		a.CrashMachine()
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
		t = t.Add(a.Planned())
	}
	return t
}
