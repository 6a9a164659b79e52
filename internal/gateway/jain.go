package gateway

// jain accumulates Jain's fairness index (Σx)² / (n·Σx²) over integer
// allocation samples — one per-tenant admission share per tenant. The sums
// are integers, so the index is bit-identical no matter what order the
// samples arrive in (float accumulation over a map walk would not be);
// callers scale fractional shares to integers (parts per thousand) before
// adding. 1.0 means every sample equal; 1/n means one sample owns everything.
type jain struct {
	n, sum, sumSq int64
}

// add feeds one sample. Samples must stay small enough that n·Σx² fits an
// int64 (parts-per-thousand shares over millions of samples do).
func (j *jain) add(x int64) {
	j.n++
	j.sum += x
	j.sumSq += x * x
}

// index returns the fairness index, defining the degenerate all-zero (or
// empty) distribution as perfectly fair.
func (j *jain) index() float64 {
	if j.n == 0 || j.sumSq == 0 {
		return 1
	}
	return float64(j.sum) * float64(j.sum) / (float64(j.n) * float64(j.sumSq))
}
