package gateway

import "testing"

func TestJainIndex(t *testing.T) {
	var equal jain
	for i := 0; i < 10; i++ {
		equal.add(1000)
	}
	if got := equal.index(); got != 1 {
		t.Errorf("equal shares: index = %v, want 1", got)
	}

	var skewed jain
	skewed.add(1000)
	for i := 0; i < 9; i++ {
		skewed.add(0)
	}
	if got, want := skewed.index(), 0.1; got != want {
		t.Errorf("one-owns-all over 10: index = %v, want %v", got, want)
	}

	var empty jain
	if got := empty.index(); got != 1 {
		t.Errorf("empty: index = %v, want 1", got)
	}

	// Order independence: integer sums make the index bit-identical.
	a, b := jain{}, jain{}
	xs := []int64{3, 700, 42, 0, 999, 5}
	for _, x := range xs {
		a.add(x)
	}
	for i := len(xs) - 1; i >= 0; i-- {
		b.add(xs[i])
	}
	if a.index() != b.index() {
		t.Errorf("order dependence: %v vs %v", a.index(), b.index())
	}
}
