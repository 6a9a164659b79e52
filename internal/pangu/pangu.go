// Package pangu simulates the Pangu distributed file system that Fuxi jobs
// read from and write to (the paper's job descriptions reference
// "pangu://" file patterns). Files are split into fixed-size chunks and each
// chunk is replicated on distinct machines across at least two racks; the
// replica locations are the data-locality signal the JobMaster's instance
// scheduler and the FuxiMaster locality tree consume. Machines are dense
// topology IDs throughout.
package pangu

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/topology"
)

// DefaultChunkSizeMB mirrors the common 256 MB chunk size of production
// DFS deployments of the era.
const DefaultChunkSizeMB = 256

// DefaultReplicas is the standard replication factor.
const DefaultReplicas = 3

// Chunk is one replicated piece of a file. Replicas are the dense IDs of
// the machines holding it, the IDs demand hints carry: a JobMaster states
// locality at them as they are.
type Chunk struct {
	File     string
	Index    int
	SizeMB   int64
	Replicas []int32
}

// File is a stored file with its chunk list.
type File struct {
	Name   string
	SizeMB int64
	Chunks []Chunk
}

// FS is the simulated file system.
type FS struct {
	top         *topology.Topology
	rng         *rand.Rand
	files       map[string]*File
	usagePerMac []int64 // MB stored per machine, by machine ID
	ChunkSizeMB int64
	Replicas    int
}

// New returns an empty file system over the topology; rng drives replica
// placement so layouts are reproducible.
func New(top *topology.Topology, rng *rand.Rand) *FS {
	return &FS{
		top:         top,
		rng:         rng,
		files:       make(map[string]*File),
		usagePerMac: make([]int64, top.Size()),
		ChunkSizeMB: DefaultChunkSizeMB,
		Replicas:    DefaultReplicas,
	}
}

// Create writes a file of sizeMB, placing chunk replicas. It fails on
// duplicate names or non-positive sizes.
func (fs *FS) Create(name string, sizeMB int64) (*File, error) {
	if _, dup := fs.files[name]; dup {
		return nil, fmt.Errorf("pangu: file %q exists", name)
	}
	if sizeMB <= 0 {
		return nil, fmt.Errorf("pangu: file %q: non-positive size %d", name, sizeMB)
	}
	f := &File{Name: name, SizeMB: sizeMB}
	remaining := sizeMB
	for i := 0; remaining > 0; i++ {
		sz := fs.ChunkSizeMB
		if remaining < sz {
			sz = remaining
		}
		remaining -= sz
		c := Chunk{File: name, Index: i, SizeMB: sz, Replicas: fs.placeReplicas()}
		for _, m := range c.Replicas {
			fs.usagePerMac[m] += sz
		}
		f.Chunks = append(f.Chunks, c)
	}
	fs.files[name] = f
	return f, nil
}

// placeReplicas picks min(Replicas, #machines) distinct machines, the first
// two on different racks when possible (rack-aware placement).
func (fs *FS) placeReplicas() []int32 {
	size := fs.top.Size()
	n := min(fs.Replicas, size)
	chosen := make([]int32, 0, n)
	first := int32(fs.rng.Intn(size))
	chosen = append(chosen, first)
	firstRack := fs.top.RackIDOf(first)

	// Second replica: prefer a different rack.
	if n >= 2 {
		chosen = append(chosen, fs.pickDistinct(chosen, func(c int32) bool { return fs.top.RackIDOf(c) != firstRack }))
	}
	for len(chosen) < n {
		chosen = append(chosen, fs.pickDistinct(chosen, nil))
	}
	return chosen
}

// pickDistinct samples a machine not in used, preferring those satisfying
// pref; it falls back to any unused machine when the preference can't be met.
func (fs *FS) pickDistinct(used []int32, pref func(int32) bool) int32 {
	const attempts = 16
	size := fs.top.Size()
	if pref != nil {
		for i := 0; i < attempts; i++ {
			c := int32(fs.rng.Intn(size))
			if !slices.Contains(used, c) && pref(c) {
				return c
			}
		}
	}
	for {
		c := int32(fs.rng.Intn(size))
		if !slices.Contains(used, c) {
			return c
		}
	}
}

// Open returns the named file, or an error when absent.
func (fs *FS) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("pangu: file %q not found", name)
	}
	return f, nil
}

// LoseMachine removes the machine from every chunk's replica set, simulating
// permanent disk loss; chunks keep their remaining replicas. It returns the
// number of chunks that lost a replica.
func (fs *FS) LoseMachine(machine int32) int {
	lost := 0
	for _, f := range fs.files {
		for i := range f.Chunks {
			reps := f.Chunks[i].Replicas
			for j, m := range reps {
				if m == machine {
					f.Chunks[i].Replicas = append(reps[:j], reps[j+1:]...)
					fs.usagePerMac[machine] -= f.Chunks[i].SizeMB
					lost++
					break
				}
			}
		}
	}
	return lost
}
