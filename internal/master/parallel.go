package master

import (
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// Sharded parallel scheduling rounds with balanced assignment and work
// stealing.
//
// A wide assignment sweep (a batched round's free-up pass, the
// post-recovery full pass) is split across Options.Shards worker
// goroutines. Racks are assigned to shards as a balanced contiguous
// partition: greedy cut points over the rack sequence driven by an EWMA
// of each rack's historically observed sweep cost (machines walked +
// decisions emitted — both deterministic), re-run every
// parRebalanceEvery sweeps, so a shard's expected scoring work is even
// rather than an accident of topology layout (see rebalanceShards for
// why the partition must stay contiguous). A shard owns whole racks, so
// rack-level wait queues never cross shards; only the cluster-level
// queue and per-unit headrooms are shared.
//
// Each shard's machine list is further chunked into claimable blocks. The
// round has two phases:
//
//  1. Score (parallel): worker w first drains its home shard's blocks in
//     order, claiming each with a CAS and walking its machines with the
//     read-only candidate view against the worker's private overlay
//     (consumed counts, used headroom, a local copy of each free vector).
//     The home overlay chains across the worker's own blocks, exactly like
//     the old whole-shard walk. A worker that runs out of home blocks
//     steals unclaimed blocks from the tails of other (started) shards;
//     every stolen block is scored against a fresh overlay of its own, so
//     thieves never race a victim's speculative state. Workers mutate
//     nothing shared; all proposals land in the block they were scored
//     under.
//
//  2. Reduce (serial, deterministic): machines are revisited in the
//     original input order — the exact order the serial scheduler would
//     process — and each machine's proposals are committed iff every
//     observed count and headroom still equals the authoritative value. A
//     mismatch means an earlier machine from another walk consumed a
//     shared entry this walk depended on: the machine is re-run serially
//     against authoritative state and the walk is tainted, which demotes
//     the walk's remaining machines to serial re-runs too (their scoring
//     assumed this walk's earlier proposals). A walk is either a shard's
//     chained home walk or a single stolen block, so a steal bounds its
//     own taint blast radius.
//
// Because counts and headrooms only shrink during a round, a walk whose
// observations all validate is guaranteed to reproduce exactly what the
// serial pass would have done at that position, so the committed decision
// stream is byte-identical to the serial scheduler's for every shard
// count, any assignment policy, and any steal interleaving — the property
// the parity fuzz pins down. Stealing and timing only move machines
// between the committed and re-run buckets; they never change a decision.

// minParallelMachines is the sweep width below which scoring in parallel
// costs more than it saves; narrower sweeps take the serial path (which
// produces the identical decision stream, so the threshold is free to be
// tuned without affecting reproducibility).
const minParallelMachines = 16

const (
	// parBlocksPerWorker is the target number of steal blocks per shard:
	// enough granularity for idle workers to help a loaded shard without
	// fragmenting the home walk's chained overlay.
	parBlocksPerWorker = 8
	// parBlockMin/Max clamp the per-sweep block size (machines per block).
	parBlockMin = 8
	parBlockMax = 256
	// parRebalanceEvery is the sweep cadence of the LPT rack->shard
	// rebalance; between rebalances observed per-rack work accumulates.
	parRebalanceEvery = 8
)

// proposal is one speculative grant scored by a walk.
type proposal struct {
	e        *waitEntry
	st       *appState
	u        *unitState
	k        int
	expCount int // entry count observed by the walk (pre-grant)
	expHead  int // unit headroom observed by the walk (pre-grant)
}

// overlay is one walk's private speculative state: entry counts consumed
// and unit headroom used by proposals earlier in the same walk.
type overlay struct {
	consumed map[*waitEntry]int
	headUsed map[*unitState]int
	ws       walkScratch
}

func newOverlay() overlay {
	return overlay{
		consumed: make(map[*waitEntry]int),
		headUsed: make(map[*unitState]int),
	}
}

func (ov *overlay) reset() {
	clear(ov.consumed)
	clear(ov.headUsed)
}

// parBlock is one claimable chunk of a shard's sweep slice. Ownership is
// resolved by a CAS on claimed; props/ends storage is retained across
// sweeps. stolen/tainted/mi are written by the claimer or the reducer,
// both strictly ordered around the parallel phase.
type parBlock struct {
	shard   int32
	start   int32 // index range into the shard's machines slice
	end     int32
	claimed int32 // atomic: 0 = unclaimed, else 1+worker
	stolen  bool  // scored by a non-home worker under a fresh overlay
	tainted bool  // reducer taint for stolen blocks (home walks taint the shard)
	props   []proposal
	ends    []int32 // props prefix length after each machine in the block
}

// shardScratch is one shard's reusable sweep state; it doubles as worker
// w's scratch (worker w is shard w's home walker).
type shardScratch struct {
	machines []int32 // this shard's slice of the sweep, in input order

	home  overlay // chained across the home walk's blocks
	steal overlay // reset before every stolen block

	firstBlock int // index of this shard's first block in s.parBlocks
	nBlocks    int

	started int32  // atomic: home worker has begun (steal eligibility)
	steals  uint64 // blocks this worker stole this sweep
	scoreNS int64  // wall time this worker spent scoring this sweep

	// reduce-phase cursor and home-walk taint flag (owned by the reducer).
	mi      int
	tainted bool
}

// ParallelStats counts the sharded sweep machinery's outcomes. Sweeps,
// Committed, Reruns, Blocks and Rebalances are deterministic given the
// workload; Steals, ScoreNS and ImbalanceSum depend on real scheduling
// interleavings (they describe the hardware run, not the decision stream,
// which is byte-identical regardless).
type ParallelStats struct {
	Sweeps    uint64 // sharded sweeps executed
	Committed uint64 // machines committed from validated proposals
	Reruns    uint64 // machines re-run serially by the reducer

	Blocks     uint64 // steal blocks scored across all sweeps
	Steals     uint64 // blocks scored by a non-home worker
	Rebalances uint64 // LPT rack->shard rebalances applied

	ScoreNS      int64   // total wall ns workers spent scoring
	ImbalanceSum float64 // per-sweep sum of max/mean worker scoring time
}

// CommitRatio is the fraction of swept machines whose speculative
// proposals validated wholesale — the effective parallel efficiency.
func (p ParallelStats) CommitRatio() float64 {
	if t := p.Committed + p.Reruns; t > 0 {
		return float64(p.Committed) / float64(t)
	}
	return 0
}

// StealRate is the fraction of scored blocks claimed by a non-home worker.
func (p ParallelStats) StealRate() float64 {
	if p.Blocks > 0 {
		return float64(p.Steals) / float64(p.Blocks)
	}
	return 0
}

// Imbalance is the mean over sweeps of (slowest worker's scoring wall
// time / mean worker scoring wall time); 1.0 is perfectly balanced, P is
// one worker doing everything.
func (p ParallelStats) Imbalance() float64 {
	if p.Sweeps > 0 {
		return p.ImbalanceSum / float64(p.Sweeps)
	}
	return 0
}

// ParallelStats returns the accumulated sharded-sweep counters.
func (s *Scheduler) ParallelStats() ParallelStats { return s.parStats }

// parallelReady reports whether a sweep over n machines takes the sharded
// path. The serial and parallel paths emit byte-identical decisions; this
// only decides which one does the work.
func (s *Scheduler) parallelReady(n int) bool {
	if s.shards <= 1 || n < minParallelMachines {
		return false
	}
	if s.opts.AgingBoostPerSecond > 0 {
		return false // aging re-ranks globally; the scoring walk has no view of it
	}
	_, indexed := s.tree.(*localityTree)
	return indexed
}

// shardOfMachine maps a machine to its current shard assignment.
func (s *Scheduler) shardOfMachine(machine int32) int32 {
	return s.rackShard[s.top.RackIDOf(machine)]
}

// rebalanceShards folds the per-rack work observed since the previous
// rebalance into the EWMA cost and recomputes the rack->shard map as a
// balanced *contiguous* partition: greedy cut points over the rack
// sequence so every shard's expected cost approaches the fair share.
// Contiguity in input order is load-bearing for the commit ratio — the
// reducer revisits machines in input order, so a shard whose machines
// lead the sweep validates its whole chained walk, while a scattered
// (LPT/round-robin) assignment interleaves shards and taints every one
// of them on the first shared cluster-queue entry. Balancing therefore
// moves the cut points, never the order. The assignment is a pure
// function of the (deterministic) cost history.
func (s *Scheduler) rebalanceShards() {
	tot := int64(0)
	for r := range s.rackCost {
		c := (s.rackCost[r] + s.rackWork[r]) / 2
		if c < 1 {
			c = 1 // floor: zero-cost racks must still advance the cut logic
		}
		s.rackCost[r] = c
		s.rackWork[r] = 0
		tot += c
	}
	racks := len(s.rackCost)
	shard, acc, used := 0, int64(0), int64(0)
	for r := 0; r < racks; r++ {
		if shard < s.shards-1 {
			target := (tot - used) / int64(s.shards-shard)
			// Close the current shard once it holds its fair share of the
			// remaining cost — but never starve a later shard of racks.
			if acc >= target && racks-r >= s.shards-shard {
				used += acc
				acc = 0
				shard++
			}
		}
		s.rackShard[r] = int32(shard)
		acc += s.rackCost[r]
	}
	s.parStats.Rebalances++
}

// assignParallel is the sharded equivalent of the serial loop in
// assignOnIDs: machines must already be deduplicated.
func (s *Scheduler) assignParallel(machines []int32, outp *[]Decision) {
	s.prepareSweep(machines)
	s.scoreSweep()
	s.reduceSweep(machines, outp)
}

// prepareSweep rebalances the rack->shard assignment on cadence, then
// distributes the sweep across shards and chunks each shard's slice into
// claimable steal blocks.
func (s *Scheduler) prepareSweep(machines []int32) {
	if s.parStats.Sweeps%parRebalanceEvery == 0 {
		s.rebalanceShards()
	}

	// Distribute the sweep across shards under the current assignment.
	for _, sc := range s.par {
		sc.machines = sc.machines[:0]
		sc.mi = 0
		sc.tainted = false
		sc.steals = 0
		sc.scoreNS = 0
		atomic.StoreInt32(&sc.started, 0)
	}
	for _, mc := range machines {
		sc := s.par[s.shardOfMachine(mc)]
		sc.machines = append(sc.machines, mc)
	}

	// Chunk each shard's slice into claimable blocks.
	bsz := len(machines) / (s.shards * parBlocksPerWorker)
	if bsz < parBlockMin {
		bsz = parBlockMin
	}
	if bsz > parBlockMax {
		bsz = parBlockMax
	}
	s.parBlockSize = bsz
	nb := 0
	for _, sc := range s.par {
		sc.firstBlock = nb
		sc.nBlocks = (len(sc.machines) + bsz - 1) / bsz
		nb += sc.nBlocks
	}
	for nb > cap(s.parBlocks) {
		s.parBlocks = append(s.parBlocks[:cap(s.parBlocks)], parBlock{})
	}
	s.parBlocks = s.parBlocks[:nb]
	for si, sc := range s.par {
		for i := 0; i < sc.nBlocks; i++ {
			blk := &s.parBlocks[sc.firstBlock+i]
			blk.shard = int32(si)
			blk.start = int32(i * bsz)
			blk.end = int32(min((i+1)*bsz, len(sc.machines)))
			blk.claimed = 0
			blk.stolen = false
			blk.tainted = false
			blk.props = blk.props[:0]
			blk.ends = blk.ends[:0]
		}
	}
}

// scoreSweep is phase 1: score in parallel. Workers only read shared
// scheduler state; every write lands in a block they own via CAS.
func (s *Scheduler) scoreSweep() {
	sim.RunParallel(s.shards, s.sweepWorker)

	var maxNS, sumNS int64
	for i := 0; i < s.shards; i++ {
		sc := s.par[i]
		sumNS += sc.scoreNS
		if sc.scoreNS > maxNS {
			maxNS = sc.scoreNS
		}
		s.parStats.Steals += sc.steals
	}
	s.parStats.ScoreNS += sumNS
	if mean := sumNS / int64(s.shards); mean > 0 {
		s.parStats.ImbalanceSum += float64(maxNS) / float64(mean)
	} else {
		s.parStats.ImbalanceSum++
	}
	s.parStats.Blocks += uint64(len(s.parBlocks))
	s.parStats.Sweeps++
}

// reduceSweep is phase 2: the deterministic reduce in input order.
func (s *Scheduler) reduceSweep(machines []int32, outp *[]Decision) {
	out := *outp
	for _, mc := range machines {
		sc := s.par[s.shardOfMachine(mc)]
		blk := &s.parBlocks[sc.firstBlock+sc.mi/s.parBlockSize]
		bi := sc.mi - int(blk.start)
		sc.mi++
		n0 := len(out)
		tainted := sc.tainted
		if blk.stolen {
			tainted = blk.tainted
		}
		if tainted {
			s.parStats.Reruns++
			s.assignOnMachine(mc, &out)
		} else {
			begin := int32(0)
			if bi > 0 {
				begin = blk.ends[bi-1]
			}
			props := blk.props[begin:blk.ends[bi]]
			valid := true
			for i := range props {
				p := &props[i]
				if p.e.count != p.expCount || p.u.headroom() != p.expHead {
					valid = false
					break
				}
			}
			if !valid {
				// Interference on a shared entry: authoritative re-run,
				// and the rest of this walk follows suit.
				if blk.stolen {
					blk.tainted = true
				} else {
					sc.tainted = true
				}
				s.parStats.Reruns++
				s.assignOnMachine(mc, &out)
			} else {
				s.parStats.Committed++
				for i := range props {
					p := &props[i]
					if p.e.u == nil {
						// Mirror the serial walk's lazy (app, unit) cache.
						p.e.st, p.e.u = p.st, p.u
					}
					s.grantOn(p.st, p.u, mc, p.k, &out)
					p.e.count -= p.k
					if p.e.count == 0 {
						noteKilled(p.e) // satisfied in place (see assignCtx.candidate)
					}
				}
			}
		}
		// Observed cost feeding the next rebalance: one unit per machine
		// walked plus four per decision emitted — both deterministic.
		s.rackWork[s.top.RackIDOf(mc)] += int64(1 + 4*(len(out)-n0))
	}
	*outp = out
}

// sweepWorker is worker w's phase-1 body: drain the home shard's blocks,
// then steal from the tails of other started shards. With
// Options.ForceSteal every block (home included) goes through the stolen
// path with a fresh overlay — the adversarial mode the parity fuzz uses
// to hammer the reducer's per-block taint handling.
func (s *Scheduler) sweepWorker(w int) {
	t0 := time.Now()
	tree := s.tree.(*localityTree)
	sc := s.par[w]
	atomic.StoreInt32(&sc.started, 1)
	if !s.opts.ForceSteal {
		sc.home.reset()
		for i := 0; i < sc.nBlocks; i++ {
			blk := &s.parBlocks[sc.firstBlock+i]
			if !atomic.CompareAndSwapInt32(&blk.claimed, 0, int32(w)+1) {
				continue // stolen while we worked; the overlay skips the hole
			}
			s.scoreBlock(tree, sc, blk, &sc.home)
		}
	}
	for off := 0; off < s.shards; off++ {
		v := (w + 1 + off) % s.shards
		if v == w && !s.opts.ForceSteal {
			continue
		}
		vs := s.par[v]
		if !s.opts.ForceSteal && atomic.LoadInt32(&vs.started) == 0 {
			// The victim's worker has not been scheduled at all: stripping
			// it wholesale would just serialize its shard through fresh
			// overlays (pure commit-ratio loss, no wall-clock win).
			continue
		}
		for i := vs.nBlocks - 1; i >= 0; i-- {
			blk := &s.parBlocks[vs.firstBlock+i]
			if !atomic.CompareAndSwapInt32(&blk.claimed, 0, int32(w)+1) {
				continue
			}
			blk.stolen = true
			sc.steals++
			sc.steal.reset()
			s.scoreBlock(tree, vs, blk, &sc.steal)
		}
	}
	sc.scoreNS = time.Since(t0).Nanoseconds()
}

// scoreBlock walks one block's machines with the read-only candidate
// view, recording speculative grants into the block under ov.
func (s *Scheduler) scoreBlock(tree *localityTree, owner *shardScratch, blk *parBlock, ov *overlay) {
	for _, mc := range owner.machines[blk.start:blk.end] {
		s.scoreMachine(tree, mc, ov, blk)
		blk.ends = append(blk.ends, int32(len(blk.props)))
	}
}

func (s *Scheduler) scoreMachine(tree *localityTree, machine int32, ov *overlay, blk *parBlock) {
	if !s.schedulable(machine) {
		return
	}
	// A private copy: the pool's vector may carry a shared extras map that
	// in-place arithmetic would corrupt under concurrent walkers.
	free := s.free[machine].Clone()
	if free.IsZero() {
		return
	}
	if cpu, mem := tree.minFit(); free.CPUMilli() < cpu || free.MemoryMB() < mem {
		return // fragment provably below every queued entry's size
	}
	rack := s.top.RackIDOf(machine)
	view := func(e *waitEntry) int { return e.count - ov.consumed[e] }
	tree.forEachCandidateView(machine, rack, &free, &ov.ws, view, func(e *waitEntry) bool {
		cnt := view(e)
		st, u := e.st, e.u
		if u == nil {
			// Resolve read-only; the serial walk's cache write happens at
			// commit time, never from a worker.
			st = s.appStateByID(e.key.app)
			if st == nil {
				return true
			}
			if int(e.key.unit) >= len(st.unitArr) {
				return true
			}
			u = &st.unitArr[e.key.unit]
		}
		head := u.headroom() - ov.headUsed[u]
		want := cnt
		if want > head {
			want = head
		}
		if want <= 0 {
			return true
		}
		k := int(free.FitCount(u.def.Size))
		if k > want {
			k = want
		}
		if k <= 0 {
			return true
		}
		blk.props = append(blk.props, proposal{e: e, st: st, u: u, k: k, expCount: cnt, expHead: head})
		ov.consumed[e] += k
		ov.headUsed[u] += k
		(&free).AddScaledInPlace(u.def.Size, -int64(k))
		return !free.IsZero()
	})
}

// initShards wires the shard structures at construction. The initial
// rack->shard map is uniform contiguous blocks; the first sweep's
// rebalance replaces it with a cost-balanced contiguous partition
// (seeded from per-rack machine counts) before any scoring happens.
func (s *Scheduler) initShards(racks int, want int) {
	s.shards = 1
	if want <= 1 {
		return
	}
	p := want
	if p > racks {
		p = racks
	}
	if p <= 1 {
		return
	}
	s.shards = p
	s.rackShard = make([]int32, racks)
	for i := 0; i < racks; i++ {
		s.rackShard[i] = int32(i * p / racks)
	}
	s.rackCost = make([]int64, racks)
	s.rackWork = make([]int64, racks)
	for id := int32(0); id < s.nMach; id++ {
		s.rackCost[s.top.RackIDOf(id)] += 2 // seed: cost proportional to machine count
	}
	s.par = make([]*shardScratch, p)
	for i := range s.par {
		s.par[i] = &shardScratch{home: newOverlay(), steal: newOverlay()}
	}
}
