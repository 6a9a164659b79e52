// Wordcount: the paper's workhorse workload. This example shows the
// resource side of a MapReduce-style application in detail — incremental
// demand with machine-level locality hints derived from DFS chunk
// locations, container grants flowing in as the locality tree frees up, and
// per-task progress — by driving the application-master API directly
// alongside the job framework.
package main

import (
	"fmt"
	"log"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/sim"
	"repro/internal/streamline"
)

func main() {
	cluster, err := core.NewCluster(core.Config{
		Racks: 3, MachinesPerRack: 4, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 6 GB of logs on Pangu: 24 chunks, 3 replicas each, rack-aware.
	input, err := cluster.FS.Create("pangu://logs/2014-06-12", 24*256)
	if err != nil {
		log.Fatal(err)
	}
	var replicas []string
	for _, m := range input.Chunks[0].Replicas {
		replicas = append(replicas, cluster.Top.MachineName(m))
	}
	fmt.Printf("input: %d chunks on the DFS; first chunk's replicas: %v\n",
		len(input.Chunks), replicas)

	desc := &job.Description{
		Name: "wordcount",
		Tasks: map[string]job.TaskSpec{
			// One mapper per chunk; the TaskMaster derives machine-level
			// locality hints from replica placement.
			"map":    {Instances: 24, CPUMilli: 500, MemoryMB: 2048, DurationMS: 4000},
			"reduce": {Instances: 4, CPUMilli: 1000, MemoryMB: 4096, DurationMS: 6000},
		},
		Pipes: []job.Pipe{
			{Source: job.AccessPoint{FilePattern: "pangu://logs/2014-06-12"},
				Destination: job.AccessPoint{AccessPoint: "map:input"}},
			{Source: job.AccessPoint{AccessPoint: "map:shuffle"},
				Destination: job.AccessPoint{AccessPoint: "reduce:shuffle"}},
			{Source: job.AccessPoint{AccessPoint: "reduce:out"},
				Destination: job.AccessPoint{FilePattern: "pangu://logs/wordcount-out"}},
		},
	}

	handle, err := cluster.SubmitJob(desc, core.JobOptions{
		// Model the paper's JobMaster start overhead.
		StartDelay: 1910 * sim.Millisecond,
		Config: job.Config{
			Backup: job.BackupConfig{Enabled: true},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	for !handle.Done() && cluster.Now() < 10*sim.Minute {
		cluster.Run(5 * sim.Second)
		if handle.JM == nil {
			continue
		}
		md, mt := handle.JM.TaskProgress("map")
		rd, rt := handle.JM.TaskProgress("reduce")
		fmt.Printf("t=%3.0fs  map %2d/%d  reduce %d/%d  planned=%v\n",
			cluster.Now().Seconds(), md, mt, rd, rt, cluster.FMPlanned())
	}
	if !handle.Done() {
		log.Fatal("wordcount did not finish")
	}

	ws, inst := handle.JM.OverheadStats()
	fmt.Printf("\nwordcount done in %.1fs (JM start %.2fs, worker start %.2fs, instance overhead %.3fs)\n",
		handle.ElapsedSeconds(), (handle.StartedAt - handle.SubmittedAt).Seconds(), ws, inst)

	// The data path the workers would run: the Streamline SDK's
	// map/shuffle/reduce operators (paper §4.1), shown on a tiny corpus.
	corpus := []string{"the quick brown fox", "jumps over the lazy dog", "the dog barks"}
	var records []streamline.Record
	for _, line := range corpus {
		for _, w := range strings.Fields(line) {
			records = append(records, streamline.Record{Key: []byte(w), Value: []byte("1")})
		}
	}
	counter := func(key []byte, values [][]byte) []streamline.Record {
		total := 0
		for _, v := range values {
			n, _ := strconv.Atoi(string(v))
			total += n
		}
		return []streamline.Record{{Key: key, Value: []byte(strconv.Itoa(total))}}
	}
	parts, err := streamline.MapSide(records, 2, counter)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nstreamline word counts:")
	for r := 0; r < 2; r++ {
		out, err := streamline.ReduceSide([]streamline.Run{parts[r]}, counter)
		if err != nil {
			log.Fatal(err)
		}
		for _, rec := range out {
			fmt.Printf("  %-6s %s\n", rec.Key, rec.Value)
		}
	}
}
