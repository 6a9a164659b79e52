package resource

import (
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	v := New(600, 2048)
	if got := v.CPUMilli(); got != 600 {
		t.Errorf("CPUMilli = %d, want 600", got)
	}
	if got := v.MemoryMB(); got != 2048 {
		t.Errorf("MemoryMB = %d, want 2048", got)
	}
	if v.IsZero() {
		t.Error("non-empty vector reported zero")
	}
}

func TestZeroValueVector(t *testing.T) {
	var v Vector
	if !v.IsZero() {
		t.Error("zero value should be zero vector")
	}
	if got := v.Get(CPU); got != 0 {
		t.Errorf("Get on zero vector = %d, want 0", got)
	}
	sum := v.Add(New(100, 256))
	if !sum.Equal(New(100, 256)) {
		t.Errorf("zero + v = %v", sum)
	}
}

func TestWithRemovesZero(t *testing.T) {
	v := New(100, 200).With(CPU, 0)
	if got := len(v.Dimensions()); got != 1 {
		t.Fatalf("dimensions after zeroing CPU = %v", v.Dimensions())
	}
	if v.Dimensions()[0] != Memory {
		t.Errorf("remaining dimension = %s, want Memory", v.Dimensions()[0])
	}
}

func TestWithDoesNotMutateReceiver(t *testing.T) {
	a := New(100, 200)
	_ = a.With(CPU, 999)
	if a.CPUMilli() != 100 {
		t.Error("With mutated receiver")
	}
	_ = a.Add(New(1, 1))
	if a.CPUMilli() != 100 || a.MemoryMB() != 200 {
		t.Error("Add mutated receiver")
	}
}

func TestAddSubRoundTrip(t *testing.T) {
	a := New(500, 1024).With("ASortResource", 2)
	b := New(300, 512)
	if got := a.Add(b).Sub(b); !got.Equal(a) {
		t.Errorf("(a+b)-b = %v, want %v", got, a)
	}
}

func TestSubCancellationDropsDimension(t *testing.T) {
	a := New(500, 1024)
	got := a.Sub(New(500, 0))
	if got.Get(CPU) != 0 {
		t.Errorf("CPU after full sub = %d", got.Get(CPU))
	}
	if n := len(got.Dimensions()); n != 1 {
		t.Errorf("dimension count = %d, want 1 (cancelled dims dropped)", n)
	}
}

func TestContains(t *testing.T) {
	supply := New(1200, 4096)
	cases := []struct {
		demand Vector
		want   bool
	}{
		{New(1200, 4096), true},
		{New(1200, 4097), false},
		{New(0, 0), true},
		{New(1, 1).With("Virtual", 1), false}, // missing virtual dim
		{New(-5, 0), true},                    // negative demand always fits
	}
	for _, c := range cases {
		if got := supply.Contains(c.demand); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.demand, got, c.want)
		}
	}
}

func TestFitCount(t *testing.T) {
	supply := New(1200, 4096)
	unit := New(500, 2048)
	if got := supply.FitCount(unit); got != 2 {
		t.Errorf("FitCount = %d, want 2", got)
	}
	if got := supply.FitCount(New(5000, 1)); got != 0 {
		t.Errorf("FitCount oversized = %d, want 0", got)
	}
	if got := New(0, 0).FitCount(unit); got != 0 {
		t.Errorf("FitCount on empty supply = %d, want 0", got)
	}
}

func TestFitCountMultiDimensionBottleneck(t *testing.T) {
	// Memory is the bottleneck: 10 CPUs fit but only 3 memory units.
	supply := New(10000, 3072)
	unit := New(1000, 1024)
	if got := supply.FitCount(unit); got != 3 {
		t.Errorf("FitCount = %d, want 3 (memory-bound)", got)
	}
}

func TestScale(t *testing.T) {
	v := New(100, 256)
	if got := v.Scale(3); !got.Equal(New(300, 768)) {
		t.Errorf("Scale(3) = %v", got)
	}
	if got := v.Scale(0); !got.IsZero() {
		t.Errorf("Scale(0) = %v, want zero", got)
	}
	if got, neg := v.Scale(-1), (Vector{}).Sub(v); !got.Equal(neg) {
		t.Errorf("Scale(-1) = %v, want %v", got, neg)
	}
}

func TestMaxMin(t *testing.T) {
	a := New(100, 500)
	b := New(300, 200)
	if got := a.Max(b); !got.Equal(New(300, 500)) {
		t.Errorf("Max = %v", got)
	}
	if got := a.Min(b); !got.Equal(New(100, 200)) {
		t.Errorf("Min = %v", got)
	}
}

func TestDominantShare(t *testing.T) {
	total := New(1000, 1000)
	v := New(200, 800)
	if got := v.DominantShare(total); got != 0.8 {
		t.Errorf("DominantShare = %v, want 0.8", got)
	}
	if got := (Vector{}).DominantShare(total); got != 0 {
		t.Errorf("DominantShare of zero = %v", got)
	}
}

func TestString(t *testing.T) {
	if got := New(600, 2048).String(); got != "{CPU:600, Memory:2048}" {
		t.Errorf("String = %q", got)
	}
	if got := (Vector{}).String(); got != "{}" {
		t.Errorf("empty String = %q", got)
	}
}

func TestFromMapDropsZeros(t *testing.T) {
	v := FromMap(map[string]int64{CPU: 10, Memory: 0, "X": 5})
	if n := len(v.Dimensions()); n != 2 {
		t.Errorf("dimensions = %v, want 2 entries", v.Dimensions())
	}
}

// Property-based tests on vector algebra.

func smallVec(a, b, c int16) Vector {
	return FromMap(map[string]int64{CPU: int64(a), Memory: int64(b), "V": int64(c)})
}

func TestPropAddCommutative(t *testing.T) {
	f := func(a1, a2, a3, b1, b2, b3 int16) bool {
		a, b := smallVec(a1, a2, a3), smallVec(b1, b2, b3)
		return a.Add(b).Equal(b.Add(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropAddAssociative(t *testing.T) {
	f := func(a1, a2, b1, b2, c1, c2 int16) bool {
		a, b, c := smallVec(a1, a2, 0), smallVec(b1, b2, 0), smallVec(c1, c2, 0)
		return a.Add(b).Add(c).Equal(a.Add(b.Add(c)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropSubInverse(t *testing.T) {
	f := func(a1, a2, a3 int16) bool {
		a := smallVec(a1, a2, a3)
		return a.Sub(a).IsZero()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropContainsMonotone(t *testing.T) {
	// If supply contains demand, then supply+x still contains demand for
	// non-negative x.
	f := func(s1, s2, d1, d2, x1, x2 uint8) bool {
		supply := FromMap(map[string]int64{CPU: int64(s1), Memory: int64(s2)})
		demand := FromMap(map[string]int64{CPU: int64(d1), Memory: int64(d2)})
		extra := FromMap(map[string]int64{CPU: int64(x1), Memory: int64(x2)})
		if !supply.Contains(demand) {
			return true
		}
		return supply.Add(extra).Contains(demand)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropFitCountConsistentWithContains(t *testing.T) {
	f := func(s1, s2, u1, u2 uint8) bool {
		supply := FromMap(map[string]int64{CPU: int64(s1), Memory: int64(s2)})
		unit := FromMap(map[string]int64{CPU: int64(u1) + 1, Memory: int64(u2) + 1})
		n := supply.FitCount(unit)
		// n units fit; n+1 must not.
		return supply.Contains(unit.Scale(n)) && !supply.Contains(unit.Scale(n+1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScheduleUnitValidate(t *testing.T) {
	ok := ScheduleUnit{ID: 1, Priority: 100, Size: New(1000, 1024), MaxCount: 10}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid unit rejected: %v", err)
	}
	cases := []ScheduleUnit{
		{ID: 2, Size: Vector{}, MaxCount: 1},
		{ID: 3, Size: New(-1, 10), MaxCount: 1},
		{ID: 4, Size: New(1, 1), MaxCount: 0},
	}
	for _, u := range cases {
		if err := u.Validate(); err == nil {
			t.Errorf("unit %d: want validation error", u.ID)
		}
	}
}

func TestLocalityStrings(t *testing.T) {
	if LocalityMachine.String() != "machine" || LocalityRack.String() != "rack" || LocalityCluster.String() != "cluster" {
		t.Error("locality String mismatch")
	}
	h := LocalityHint{Type: LocalityMachine, Node: 7, Count: 2}
	if h.String() != "machine(7)*2" {
		t.Errorf("hint string = %q", h.String())
	}
	if (LocalityHint{Type: LocalityCluster, Count: 5}).String() != "cluster*5" {
		t.Error("cluster hint string mismatch")
	}
}

func TestForEachDimensionMatchesDimensions(t *testing.T) {
	cases := []Vector{
		{},
		New(600, 0),
		New(0, 2048),
		New(600, 2048),
		New(600, 2048).With("gpu", 2).With("disk_mb", 4096),
	}
	for _, v := range cases {
		var gotDims []string
		var gotAmts []int64
		v.ForEachDimension(func(d string, a int64) {
			gotDims = append(gotDims, d)
			gotAmts = append(gotAmts, a)
		})
		want := v.Dimensions()
		if len(gotDims) != len(want) || v.NumDimensions() != len(want) {
			t.Errorf("%v: visited %v (n=%d), want %v", v, gotDims, v.NumDimensions(), want)
			continue
		}
		for i, d := range want {
			if gotDims[i] != d || gotAmts[i] != v.Get(d) {
				t.Errorf("%v: dim %d = (%s,%d), want (%s,%d)", v, i, gotDims[i], gotAmts[i], d, v.Get(d))
			}
		}
	}
}

func TestForEachDimensionAllocFree(t *testing.T) {
	v := New(600, 2048)
	sink := int64(0)
	if n := testing.AllocsPerRun(100, func() {
		v.ForEachDimension(func(_ string, a int64) { sink += a })
	}); n != 0 {
		t.Errorf("ForEachDimension allocated %.1f times per run on an extras-free vector", n)
	}
}
