package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/job"
	"repro/internal/sim"
)

// TestJobCompletesUnderMessageLoss runs a full DAG job over a lossy,
// duplicating network. Every recovery path matters here: idempotent delta
// application, the periodic full sync, the worker-start timeout, and the
// idle-report assignment resend.
func TestJobCompletesUnderMessageLoss(t *testing.T) {
	for _, rate := range []float64{0.02, 0.05} {
		rate := rate
		t.Run(fmt.Sprintf("drop=%v", rate), func(t *testing.T) {
			c := newCluster(t, Config{Racks: 2, MachinesPerRack: 3, Seed: 31})
			c.Net.DropRate, c.Net.DupRate = rate, rate
			desc := mapReduceDesc(t, c, "lossy", 24, 6, 2000)
			h, err := c.SubmitJob(desc, JobOptions{Config: job.Config{
				FullSyncInterval: 2 * sim.Second,
				Backup:           job.BackupConfig{Enabled: true, ScanInterval: 2 * sim.Second},
			}})
			if err != nil {
				t.Fatal(err)
			}
			runToCompletion(t, c, h, 30*sim.Minute)
			// The cluster must drain cleanly despite the chaos.
			c.Run(30 * sim.Second)
			if s := c.Scheduler(); s != nil {
				if bad := s.CheckInvariants(); len(bad) > 0 {
					t.Errorf("invariants: %v", bad)
				}
			}
		})
	}
}

// TestJobSurvivesRandomFaultSchedule fuzzes the failure space: while a job
// runs, random machines die and reboot, worker processes crash, agent
// daemons bounce, the JobMaster is killed and restarted, and the primary
// FuxiMaster fails over — in random order. The job must still complete and
// the books must balance.
func TestJobSurvivesRandomFaultSchedule(t *testing.T) {
	for seed := int64(41); seed <= 43; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := newCluster(t, Config{Racks: 3, MachinesPerRack: 4, Seed: seed, Standby: true})
			rng := rand.New(rand.NewSource(seed))
			desc := mapReduceDesc(t, c, "chaos", 36, 12, 3000)
			h, err := c.SubmitJob(desc, JobOptions{Config: job.Config{
				FullSyncInterval: 3 * sim.Second,
				Backup:           job.BackupConfig{Enabled: true, ScanInterval: 3 * sim.Second},
			}})
			if err != nil {
				t.Fatal(err)
			}
			machines := c.Top.Machines()
			deadMachines := map[string]bool{}
			jmDown := false
			masterKilled := false

			for i := 0; i < 60 && !h.Done(); i++ {
				c.Run(2 * sim.Second)
				switch rng.Intn(8) {
				case 0: // machine dies (keep a quorum alive)
					if len(deadMachines) < 3 {
						m := machines[rng.Intn(len(machines))]
						if !deadMachines[m] {
							deadMachines[m] = true
							c.KillMachine(m)
						}
					}
				case 1: // machine reboots
					for m := range deadMachines {
						delete(deadMachines, m)
						c.RestartMachine(m)
						break
					}
				case 2: // a worker process crashes
					m := machines[rng.Intn(len(machines))]
					if a := c.Agent(m); a != nil {
						if ps := a.Procs(); len(ps) > 0 {
							a.CrashWorker(ps[0], "fuzz crash")
						}
					}
				case 3: // agent daemon bounces
					m := machines[rng.Intn(len(machines))]
					if a := c.Agent(m); a != nil && a.Up() {
						a.CrashDaemon()
						c.Run(sim.Second)
						a.RestartDaemon()
					}
				case 4: // JobMaster crash / restart
					if jmDown {
						if err := h.RestartJobMaster(); err == nil {
							jmDown = false
						}
					} else if h.JM != nil && !h.Done() {
						if err := h.CrashJobMaster(); err == nil {
							jmDown = true
						}
					}
				case 5: // FuxiMaster failover (once)
					if !masterKilled {
						if c.KillPrimaryMaster() != nil {
							masterKilled = true
						}
					}
				}
			}
			// Stop injecting; let everything recover and finish.
			if jmDown {
				if err := h.RestartJobMaster(); err != nil {
					t.Fatal(err)
				}
			}
			for m := range deadMachines {
				c.RestartMachine(m)
			}
			runToCompletion(t, c, h, 60*sim.Minute)
			c.Run(30 * sim.Second)
			if s := c.Scheduler(); s != nil {
				if bad := s.CheckInvariants(); len(bad) > 0 {
					t.Errorf("invariants after chaos: %v", bad)
				}
			} else {
				t.Error("no primary after chaos settled")
			}
		})
	}
}
