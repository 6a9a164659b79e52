package dense

import (
	"math/rand"
	"sort"
	"testing"
)

// TestMapAgainstBuiltin drives a Map and a built-in map with the same random
// operations, across the scan/binary-search boundary, and compares every read.
func TestMapAgainstBuiltin(t *testing.T) {
	for _, keys := range []uint64{3, scanMax, 200} {
		rng := rand.New(rand.NewSource(int64(keys)))
		var m Map[int]
		want := map[uint64]int{}
		for op := 0; op < 20000; op++ {
			k := uint64(rng.Int63n(int64(keys))) << 30 // spread keys over both halves of the word
			switch rng.Intn(5) {
			case 0:
				*m.Put(k) += op
				want[k] += op
			case 1:
				m.Delete(k)
				delete(want, k)
			case 2:
				if got := m.Get(k); got != want[k] {
					t.Fatalf("keys=%d op %d: Get(%d) = %d, want %d", keys, op, k, got, want[k])
				}
			case 4:
				_, in := want[k]
				i := m.Index(k)
				if (i >= 0) != in || (in && m.Cells()[i] != Cell[int]{k, want[k]}) {
					t.Fatalf("keys=%d op %d: Index(%d) = %d disagrees with the reference", keys, op, k, i)
				}
				if in && op%3 == 0 {
					m.DeleteAt(i)
					delete(want, k)
				}
			case 3:
				n := 1 + rng.Intn(2*op+1)
				have, in := want[k]
				if took := Take(&m, k, n); took != min(have, n) {
					t.Fatalf("keys=%d op %d: Take(%d, %d) = %d with %d there", keys, op, k, n, took, have)
				}
				if in {
					if want[k] -= min(have, n); want[k] == 0 {
						delete(want, k)
					}
				}
			}
			if m.Len() != len(want) {
				t.Fatalf("keys=%d op %d: Len = %d, want %d", keys, op, m.Len(), len(want))
			}
		}
		cells := m.Cells()
		if !sort.SliceIsSorted(cells, func(i, j int) bool { return cells[i].Key < cells[j].Key }) {
			t.Fatalf("keys=%d: cells out of key order", keys)
		}
		for _, c := range cells {
			if want[c.Key] != c.Val {
				t.Fatalf("keys=%d: cell %d = %d, want %d", keys, c.Key, c.Val, want[c.Key])
			}
		}
		m.Reset()
		if m.Len() != 0 || m.Index(0) >= 0 {
			t.Fatalf("keys=%d: Reset left rows behind", keys)
		}
	}
}

func TestMapSteadyStateAllocatesNothing(t *testing.T) {
	var m Map[int]
	for k := uint64(0); k < 4; k++ {
		*m.Put(k) = 1
	}
	if n := testing.AllocsPerRun(100, func() {
		m.Delete(2)
		*m.Put(2)++
		*m.Put(3) += m.Get(1)
	}); n != 0 {
		t.Fatalf("delete/re-insert within capacity allocates %v times", n)
	}
}
