// Package resource implements Fuxi's multi-dimensional resource description
// (paper §3.2.1). A Vector quantifies resources along named dimensions; the
// first two dimensions are always physical (CPU, Memory) and further
// dimensions are application-defined "virtual resources" used to cap the
// per-node concurrency of particular task types. All allocation decisions in
// the scheduler require every dimension of a request to be satisfied
// simultaneously.
package resource

import (
	"fmt"
	"sort"
	"strings"
)

// Well-known physical dimensions. CPU is measured in milli-cores (100 = 1
// core in the paper's request sample, Figure 4, where amount 100 denotes one
// core); Memory is measured in MB.
const (
	CPU    = "CPU"
	Memory = "Memory"
)

// Vector is a multi-dimensional resource quantity. The zero value is an
// empty vector (all dimensions zero). Vectors are value types: arithmetic
// methods return new vectors and never mutate the receiver's map in place
// unless documented otherwise.
//
// The two physical dimensions live in dedicated fields so that the
// scheduler's free-pool matching — millions of FitCount/Contains calls per
// stress run — involves no map traversal at all; only application-defined
// virtual resources pay for the map. The extras map never holds the CPU or
// Memory keys and never holds explicit zeros.
type Vector struct {
	cpu    int64
	mem    int64
	extras map[string]int64
}

// New returns a vector with the given CPU (milli-cores) and memory (MB).
func New(cpuMilli, memoryMB int64) Vector {
	return Vector{cpu: cpuMilli, mem: memoryMB}
}

// FromMap builds a vector from a dimension→amount map. Zero-valued entries
// are dropped so that equality is insensitive to explicit zeros.
func FromMap(m map[string]int64) Vector {
	var v Vector
	for k, a := range m {
		if a != 0 {
			v.set(k, a)
		}
	}
	return v
}

// set assigns dimension dim in place (receiver must be owned).
func (v *Vector) set(dim string, amount int64) {
	switch dim {
	case CPU:
		v.cpu = amount
	case Memory:
		v.mem = amount
	default:
		if amount == 0 {
			delete(v.extras, dim)
			return
		}
		if v.extras == nil {
			v.extras = make(map[string]int64, 2)
		}
		v.extras[dim] = amount
	}
}

// With returns a copy of v with dimension dim set to amount. Setting zero
// removes the dimension.
func (v Vector) With(dim string, amount int64) Vector {
	out := v.clone()
	out.set(dim, amount)
	return out
}

func (v Vector) clone() Vector {
	out := Vector{cpu: v.cpu, mem: v.mem}
	if len(v.extras) > 0 {
		out.extras = make(map[string]int64, len(v.extras))
		for k, a := range v.extras {
			out.extras[k] = a
		}
	}
	return out
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector { return v.clone() }

// AddScaledInPlace adds n*o into the receiver, mutating it (unlike the
// value-semantics arithmetic methods) and keeping the zero-elision
// invariant. It exists for hot-path accumulators — free pools, aggregate
// headroom, quota usage — where the Add/Scale allocation per update
// dominates. The receiver must be exclusively owned by the caller: vectors
// sharing its extras map would observe the mutation.
func (v *Vector) AddScaledInPlace(o Vector, n int64) {
	if n == 0 {
		return
	}
	v.cpu += o.cpu * n
	v.mem += o.mem * n
	if len(o.extras) == 0 {
		return // ranging over even an empty map sets up an iterator; nearly every vector has none
	}
	for k, a := range o.extras {
		sum := v.extras[k] + a*n
		if sum == 0 {
			delete(v.extras, k)
			continue
		}
		if v.extras == nil {
			v.extras = make(map[string]int64, len(o.extras))
		}
		v.extras[k] = sum
	}
}

// Get returns the amount on dimension dim (zero if absent).
func (v Vector) Get(dim string) int64 {
	switch dim {
	case CPU:
		return v.cpu
	case Memory:
		return v.mem
	default:
		return v.extras[dim]
	}
}

// CPUMilli returns the CPU dimension in milli-cores.
func (v Vector) CPUMilli() int64 { return v.cpu }

// MemoryMB returns the Memory dimension in MB.
func (v Vector) MemoryMB() int64 { return v.mem }

// Dimensions returns the sorted list of dimensions with non-zero amounts.
func (v Vector) Dimensions() []string {
	out := make([]string, 0, len(v.extras)+2)
	if v.cpu != 0 {
		out = append(out, CPU)
	}
	if v.mem != 0 {
		out = append(out, Memory)
	}
	for k := range v.extras {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// NumDimensions reports how many non-zero dimensions ForEachDimension will
// visit, without allocating.
func (v Vector) NumDimensions() int {
	n := len(v.extras)
	if v.cpu != 0 {
		n++
	}
	if v.mem != 0 {
		n++
	}
	return n
}

// ForEachDimension calls fn for every non-zero dimension in the same sorted
// order Dimensions returns. Alloc-free when the vector carries no extra
// dimensions (every vector the scheduler and checkpoint codec touch);
// extras fall back to the sorted copy. CPU sorts before Memory.
func (v Vector) ForEachDimension(fn func(dim string, amount int64)) {
	if len(v.extras) == 0 {
		if v.cpu != 0 {
			fn(CPU, v.cpu)
		}
		if v.mem != 0 {
			fn(Memory, v.mem)
		}
		return
	}
	for _, d := range v.Dimensions() {
		fn(d, v.Get(d))
	}
}

// IsZero reports whether every dimension is zero.
func (v Vector) IsZero() bool { return v.cpu == 0 && v.mem == 0 && len(v.extras) == 0 }

// HasVirtual reports whether v carries any dimension beyond CPU and Memory.
func (v Vector) HasVirtual() bool { return len(v.extras) > 0 }

// Add returns v + o.
func (v Vector) Add(o Vector) Vector {
	out := v.clone()
	out.AddScaledInPlace(o, 1)
	return out
}

// Sub returns v - o. The result may have negative dimensions; callers that
// need non-negativity should check Contains first.
func (v Vector) Sub(o Vector) Vector {
	out := v.clone()
	out.AddScaledInPlace(o, -1)
	return out
}

// Scale returns v * n.
func (v Vector) Scale(n int64) Vector {
	if n == 0 {
		return Vector{}
	}
	out := Vector{cpu: v.cpu * n, mem: v.mem * n}
	if len(v.extras) > 0 {
		out.extras = make(map[string]int64, len(v.extras))
		for k, a := range v.extras {
			out.extras[k] = a * n
		}
	}
	return out
}

// Contains reports whether v >= o on every dimension of o, i.e. a supply v
// can satisfy a demand o. All dimensions must be satisfied simultaneously
// (paper §3.2.1).
func (v Vector) Contains(o Vector) bool {
	if v.cpu < o.cpu || v.mem < o.mem {
		return false
	}
	if len(o.extras) == 0 {
		return true
	}
	for k, a := range o.extras {
		if v.extras[k] < a {
			return false
		}
	}
	return true
}

// FitCount returns how many whole units of o fit inside v (0 if o has a
// dimension v lacks). A zero unit fits infinitely; FitCount returns a large
// sentinel in that case.
func (v Vector) FitCount(o Vector) int64 {
	const unbounded = int64(1) << 50
	count := unbounded
	if o.cpu > 0 {
		count = v.cpu / o.cpu
	}
	if o.mem > 0 {
		if c := v.mem / o.mem; c < count {
			count = c
		}
	}
	if len(o.extras) > 0 { // ranging over even an empty map sets up an iterator
		for k, a := range o.extras {
			if a <= 0 {
				continue
			}
			if c := v.extras[k] / a; c < count {
				count = c
			}
		}
	}
	if count < 0 {
		return 0
	}
	return count
}

// NonNegative reports whether every dimension of v is >= 0.
func (v Vector) NonNegative() bool {
	if v.cpu < 0 || v.mem < 0 {
		return false
	}
	for _, a := range v.extras {
		if a < 0 {
			return false
		}
	}
	return true
}

// Equal reports dimension-wise equality.
func (v Vector) Equal(o Vector) bool {
	if v.cpu != o.cpu || v.mem != o.mem || len(v.extras) != len(o.extras) {
		return false
	}
	if len(v.extras) == 0 {
		return true
	}
	for k, a := range v.extras {
		if o.extras[k] != a {
			return false
		}
	}
	return true
}

func min64(a, b int64) int64 {
	if b < a {
		return b
	}
	return a
}

// DominantShare returns the maximum over dimensions of v[d]/total[d], the
// dominant resource share used when ranking quota-group usage for
// preemption. Dimensions absent from total are ignored.
func (v Vector) DominantShare(total Vector) float64 {
	share := 0.0
	if total.cpu > 0 {
		share = float64(v.cpu) / float64(total.cpu)
	}
	if total.mem > 0 {
		if s := float64(v.mem) / float64(total.mem); s > share {
			share = s
		}
	}
	for k, a := range v.extras {
		t := total.extras[k]
		if t <= 0 {
			continue
		}
		if s := float64(a) / float64(t); s > share {
			share = s
		}
	}
	return share
}

// String renders the vector as "{CPU:600, Memory:2048}" with sorted keys.
func (v Vector) String() string {
	if v.IsZero() {
		return "{}"
	}
	keys := v.Dimensions()
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%d", k, v.Get(k))
	}
	b.WriteByte('}')
	return b.String()
}
