package dense

import "unsafe"

// arenaFirst is the records an Arena's first chunk holds: a tree built by a
// unit test or a smoke run pays for a few records, not a full chunk.
const arenaFirst = 8

// arenaBytes caps a chunk: chunks double from arenaFirst records until the
// next would pass 64 KiB, and stay at the most records that fit in it. A
// chunk that large is allocated in whole 8 KiB pages, so its tail wastes
// less than one record. A cap of 256 records wasted a tenth of every
// chunk of wait entries: 24 KiB of them plus the 8-byte header the
// allocator puts before a pointer-holding object over 512 bytes moved each
// chunk into the 27 KiB size class (EXPERIMENTS.md, "What a waiting entry
// cost").
const arenaBytes = 64 << 10

// Arena is a store of records of one type that one owner creates and drops
// by the thousand: a locality tree's wait entries and queue nodes, a
// harness's in-flight holds. New carves records from chunks instead of
// allocating each one, and Free takes a record back for the next New, so
// the store holds as many records as were ever live at once, plus the
// unused tail of its current chunk. A chunk lives as long as any of its
// records is reachable; the store keeps every chunk for its own life. The
// zero value is an empty store.
type Arena[T any] struct {
	chunk  []T  // the current chunk's records not yet handed out
	free   []*T // freed records, handed out again last freed first
	carved int  // records in every chunk cut so far
}

// New returns a zeroed record: the last one freed, or else the next one of
// the current chunk, cutting a new chunk when that one is spent.
func (a *Arena[T]) New() *T {
	if n := len(a.free); n > 0 {
		p := a.free[n-1]
		a.free = a.free[:n-1]
		return p
	}
	if len(a.chunk) == 0 {
		n := min(max(a.carved, arenaFirst), chunkMax[T]())
		a.chunk = make([]T, n)
		a.carved += n
	}
	p := &a.chunk[0]
	a.chunk = a.chunk[1:]
	return p
}

// Free zeroes p and keeps it for the next New. p must have come from a's New
// and must not be used again; nothing checks either.
func (a *Arena[T]) Free(p *T) {
	var zero T
	*p = zero
	a.free = append(a.free, p)
}

// Carved returns how many records the store's chunks hold in all: live,
// freed and not yet handed out.
func (a *Arena[T]) Carved() int { return a.carved }

// chunkMax is the most records of type T a chunk holds: one, for a record
// over arenaBytes.
func chunkMax[T any]() int {
	var zero T
	return max(arenaBytes/max(int(unsafe.Sizeof(zero)), 1), 1)
}
