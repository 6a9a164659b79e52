package trace

import "math"

// This file holds the bounded Pareto's analytic mean: exported for this package's tests, which read
// it, and called by no shipped code.

// Mean returns the analytic mean (Alpha ≠ 1; the truncation makes it finite
// for every Alpha > 0).
func (p BoundedPareto) Mean() float64 {
	if p.Max <= p.Min {
		return p.Min
	}
	if p.Alpha == 1 {
		return p.Min * math.Log(p.Max/p.Min) / (1 - p.Min/p.Max)
	}
	r := math.Pow(p.Min/p.Max, p.Alpha)
	return p.Min / (1 - r) * p.Alpha / (p.Alpha - 1) *
		(1 - math.Pow(p.Min/p.Max, p.Alpha-1))
}
