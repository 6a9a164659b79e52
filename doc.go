// Package repro is a from-scratch Go reproduction of "Fuxi: a
// Fault-Tolerant Resource Management and Job Scheduling System at Internet
// Scale" (Zhang et al., VLDB 2014): the incremental resource-management
// protocol with locality-tree scheduling, user-transparent failover for
// FuxiMaster / FuxiAgent / JobMaster, the multi-level machine blacklist and
// backup-instance scheme, plus every substrate the paper depends on
// (simulated cluster, network, lock service, DFS) and a YARN-style baseline
// for comparison.
//
// Entry points:
//
//   - internal/core: NewCluster, the one place a cluster is wired, and the
//     Cluster facade (submit jobs, sample utilisation, kill things)
//   - bench_test.go over internal/experiments: the one entry point that
//     reproduces every table and figure of §5 (`go test -run NONE -bench .
//     -benchtime 1x .`), one benchmark per run at its default size
//   - cmd/scalesim: the 5,000-machine stress harness — one `-lane` per
//     scenario in the internal/scale Lanes table, at its full or smoke
//     size, each with its budget gates
//   - examples/: runnable walkthroughs of the public API
//
// # One assembler, one seam
//
// core.NewCluster is the only function that constructs a cluster's parts —
// topology, engine, network, lock service, checkpoint store, gateway, the
// hot-standby master pair, one agent per machine, the fault injector — in a
// fixed boot order (gateway, masters, a 10 ms election settle, agents by
// machine ID) that every decision-stream hash depends on.
// Examples, experiments and the scale harness are built on it; CI greps the
// constructors out of every other non-test file. The scale harness adds one
// seam: a run is a workload (where jobs come from, what is measured, what
// ends it: classic arrivals, churn, gateway generator, dataplane, replay)
// and a list of probes (what each needs of the cluster, its fault and
// grant/revoke hooks, its share of the result: failover timing, chaos
// convergence, the obs client), chosen from scale.Config in one function.
// Every job — a synthetic one, or a dataplane job run by the same §4
// JobMaster core's job facade launches — observes its grants and revocations
// through one path and finishes through one path, so a lane is a Config and
// lanes compose.
//
// # One serial scheduling path
//
// The scheduling core (internal/master) is a single goroutine: Fuxi's scale
// comes from incremental, event-driven scheduling (§3.1–3.3 — a decision
// costs work proportional to the delta), not from a parallel scheduler;
// EXPERIMENTS.md ("Why the sharded scheduler was removed") has the
// measurement behind that. The parity fuzz in internal/master pins the
// test-only reference tree ≡ the shipped scheduler under agent and master
// failovers.
//
// # Incremental communication: delta/anchor epochs
//
// Control-plane traffic is delta-encoded with periodic full-state anchors
// (paper §3.1 generalized to every channel): agent heartbeats carry only a
// health score at steady state, a change list after capacity churn, and the
// complete allocation table on anchor beats (every tenth, on a
// MasterHello from a freshly promoted primary — which restores soft state
// only from anchors — and after restarts); the master's per-decision
// capacity stream to each agent is rolled up into one CapacityDelta per
// scheduling step — the releases a step applies and the grants and
// revocations its reassignment makes, releases first, in one message — with
// CapacitySync as the repair anchor, and each application hears one
// GrantUpdate per step, every unit it decided for a run of (machine, ±count)
// entries. In the other direction an application master says one thing per
// instant: one DemandUpdate carries its same-instant container returns and
// its demand for every unit it asked for, in call order, and the master
// applies the returns first. Every DemandUpdate joins the master's one
// scheduling round, which applies its releases first, reassigns the freed
// machines in one sweep, then places the demand; Config.BatchWindow only sets
// when the round flushes. A positive window coalesces the updates inside it
// and places their demand merged per application and unit, a zero window
// flushes each update as it arrives, and a promoted successor holds the round
// until its soft state is rebuilt. The ten message types every job,
// every decision, every safety sync and every agent beat sends — heartbeats
// among them — are pointers recycled through the network's free lists
// (internal/protocol's package comment lists them), so an agent keeps a
// count per capacity row and no heartbeat buffer of its own.
//
// # Integer-ID control plane: interned identities, slice-indexed hot state
//
// The control plane's hot paths run entirely on dense integer IDs
// (internal/ident is the interning primitive). Machines and racks carry
// their topology index — assigned from the sorted name list, so every
// process derives identical IDs and they are safe on the simulated wire:
// GrantUpdate, DemandUpdate returns and hints, FullDemandSync, CapacityQuery,
// heartbeat traffic and the worker plane's WorkerStatus and WorkerListRequest
// all speak machine and rack IDs, and so does the job layer above it (task
// masters, job blacklists, worker runtimes, Pangu's replica lists). A locality hint is
// (level, node ID, count), 0 at cluster level; FuxiMaster drops a demand
// message with a hint the topology does not hold (topology.Holds) whole.
// Transport endpoints are interned by the Net (handlers receive sender
// EndpointIDs; dedup high-water marks are indexed by them), and an
// application master's endpoint ID doubles as the application's identity
// between FuxiMaster and the agents: capacity deltas, capacity syncs and
// heartbeat allocation tables carry it, the agents key their ledgers by it,
// and the master finds a sender's state by it — unlike the scheduler's own
// registration-order app IDs it survives a master failover. A finished
// application's endpoint slot is recycled under a new generation (the ID
// carries both), so tables indexed by slot follow the endpoints open at
// once, and a late message naming the old generation is dropped on arrival.
// The scheduler/master wrapper keep per-machine state —
// free vectors, down and blacklist marks, heartbeat clocks, flap scores,
// wait queues — in slices indexed by machine ID, and every per-unit book
// (where a unit is granted, what an application master holds and still
// wants, a unit's wait entries) in compact sorted tables (internal/dense)
// rather than hash maps.
//
// The boundary rule: names exist only at the edges. Messages from an
// application master carry its name (RegisterApp introduces it, and it is
// what the checkpoint stores); worker-management traffic carries no name but
// the job layer's task names: a worker is (application endpoint ID, worker
// number), the application is the sender of a plan, stop or list reply, and
// a machine is its ID — the application master takes a worker message only
// from the agent of a machine the topology holds and reaches an agent only
// through an endpoint the network already knows, and a JobMaster takes an
// instance report only from the worker it names — checkpoint snapshots serialize names exclusively (the encoding
// cannot express an interned ID, so none can leak into durable state), and
// every public inspection API converts on the way out; only tests, examples
// and core.Cluster's fault helpers take machine names. Steady-state
// scheduling — the `churn` section of BENCH_scale.json — runs allocation-
// lean (CI-gated allocs/decision budget) with no string hashing per
// decision.
//
// # Multi-tenant submission gateway
//
// internal/gateway is the front door between a million-user tenant
// population and FuxiMaster: per-tenant token buckets with burst credit,
// service/batch priority classes mapped onto scheduler quota groups,
// bounded per-tenant queues with deterministic shedding, weighted-fair
// round-robin dequeue under an in-flight cap, and an explicit job
// lifecycle (submitted → queued → admitted → registered → completed |
// shed) driven entirely by the sim clock — the admit/shed decision stream
// is byte-identical across repeated runs. Admission hands jobs to
// the master as idempotent JobAdmits, replayed on a promoted primary's
// hello until acknowledged; the admission-conservation rule in
// internal/invariant proves no master failover loses or duplicates a job,
// and application masters now acknowledge-and-retry UnregisterApp so a job
// completing during an interregnum cannot strand resurrected grants.
// scalesim -lane gateway runs the scenario at paper scale and records
// admission percentiles, shed rates and per-class Jain fairness in the
// `gateway` section of BENCH_scale.json.
//
// # Partition tolerance: adversarial network schedules
//
// internal/transport models per-link network conditions on top of its
// ordering contract (per ordered pair, messages deliver in send order —
// pinned by a dedicated test): Partition/Isolate/Heal split the endpoint
// set, SetLinkDown/SetLinkDelay/SetLinkRule drop, delay or duplicate
// traffic on individual links, and per-link counters (off the hot path
// unless enabled) attribute loss. internal/faults is the only caller that
// turns them into faults: a fault is a value (faults.Fault — machine down,
// workers broken, machine slow, master crash, partition, link flap, delay
// spike, lock cut), a schedule a []Fault planned by a Campaign from a
// dedicated random stream or written as a literal, and one faults.Injector
// per cluster (core.Cluster.Faults) fires them, retries the ones that cannot open yet,
// posts each window's closing event and counts what it did. The protocol
// layers are hardened to survive them:
// receivers detect sequence gaps and force an immediate anchor/sync
// instead of waiting out the epoch, gateway and appmaster retries back off
// exponentially with deterministic FNV jitter, and the master's
// lease-expiry fence self-demotes a primary partitioned from the lock
// service so the promoted standby (higher epoch) is the only writer.
// scalesim -lane chaos runs steady-state churn under a partition-storm
// schedule and gates convergence-after-heal — heal instant until every
// victim agent's allocation table equals the primary's ledger — in the
// `chaos` section of BENCH_scale.json.
//
// See README.md for a tour (including the measured Seed → PR 1 → PR 3 → PR
// 5 numbers), DESIGN.md for the system inventory, and EXPERIMENTS.md for
// paper-vs-measured results.
package repro
