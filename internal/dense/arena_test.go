package dense

import (
	"math/rand"
	"testing"
)

// arenaRec is a record wide enough that an aliased or half-cleared record
// shows: New must hand it out all zeros, and a live one must keep what was
// written to it. At 264 bytes a full chunk holds 248 of them, so the
// oracle's scripts reach full chunks.
type arenaRec struct {
	id  int
	tag [31]uint64
	p   *int
}

// runArenaScript drives one Arena against a map of the records it holds
// live. Each byte is one operation: New (five ways in eight) or Free of the
// live record the byte picks. Every New must return a zeroed record that no
// live record shares; every freed record must read zero; after every
// operation every live record must still hold what was written to it, and
// the chunks may hold at most one chunk more than the most records ever live
// at once.
func runArenaScript(t *testing.T, data []byte) {
	var a Arena[arenaRec]
	live := map[*arenaRec]int{}
	var order []*arenaRec // the live records, in a fixed order to pick from
	high := 0
	for step, c := range data {
		if c%8 < 5 || len(order) == 0 {
			p := a.New()
			if _, dup := live[p]; dup {
				t.Fatalf("step %d: New returned a live record", step)
			}
			if *p != (arenaRec{}) {
				t.Fatalf("step %d: New returned %+v, not a zeroed record", step, *p)
			}
			*p = arenaRec{id: step + 1, tag: [31]uint64{uint64(step), ^uint64(step), 7}, p: &step}
			live[p] = step + 1
			order = append(order, p)
		} else {
			i := int(c>>3) % len(order)
			p := order[i]
			order[i] = order[len(order)-1]
			order = order[:len(order)-1]
			delete(live, p)
			a.Free(p)
			if *p != (arenaRec{}) {
				t.Fatalf("step %d: a freed record reads %+v", step, *p)
			}
		}
		high = max(high, len(live))
		for p, id := range live {
			if p.id != id || p.tag[0] != uint64(id-1) || p.tag[2] != 7 {
				t.Fatalf("step %d: live record %d reads %+v", step, id, *p)
			}
		}
		if chunk := min(max(high, arenaFirst), chunkMax[arenaRec]()); a.Carved() > high+chunk || a.Carved() < len(live) {
			t.Fatalf("step %d: %d records carved for a high-water mark of %d", step, a.Carved(), high)
		}
	}
}

// TestArenaOracle runs the oracle over seeded random scripts, long enough to
// reach full-size chunks and to free and re-use thousands of records.
func TestArenaOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4096)
		rng.Read(data)
		runArenaScript(t, data)
	}
}

// FuzzArenaOracle is TestArenaOracle over hostile scripts: long runs of New
// across chunk boundaries, and frees that empty the store and refill it.
func FuzzArenaOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 600))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 5, 5, 5, 5, 5, 5, 5, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(runArenaScript)
}

// TestArenaChunks: a store's records cost one allocation a chunk, chunks
// double from arenaFirst records up to arenaBytes, and a warm New/Free pair
// allocates nothing.
func TestArenaChunks(t *testing.T) {
	n := 4 * chunkMax[arenaRec]()
	chunks, carved := 0, 0
	for carved < n {
		carved += min(max(carved, arenaFirst), chunkMax[arenaRec]())
		chunks++
	}
	if allocs := testing.AllocsPerRun(10, func() {
		var a Arena[arenaRec]
		for range n {
			a.New()
		}
		if a.Carved() != carved {
			t.Fatalf("%d records carved for %d, want %d", a.Carved(), n, carved)
		}
	}); allocs != float64(chunks) {
		t.Fatalf("%d records cost %v allocations, want %d chunks", n, allocs, chunks)
	}
	var a Arena[arenaRec]
	a.Free(a.New())
	if allocs := testing.AllocsPerRun(100, func() { a.Free(a.New()) }); allocs != 0 {
		t.Fatalf("a warm New/Free allocates %v times", allocs)
	}
}

// TestArenaRecordOverCap: a record larger than a chunk's cap still comes
// one to a chunk.
func TestArenaRecordOverCap(t *testing.T) {
	var a Arena[[arenaBytes + 8]byte]
	p, q := a.New(), a.New()
	if p == q || a.Carved() < 2 {
		t.Fatalf("two records of %d bytes: distinct %v, %d carved", arenaBytes+8, p != q, a.Carved())
	}
}
