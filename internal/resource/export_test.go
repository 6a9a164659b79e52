package resource

// This file holds a vector's dimension map: exported for this package's tests, which read
// them, and called by no shipped code.

// ToMap returns a copy of the dimension map.
func (v Vector) ToMap() map[string]int64 {
	out := make(map[string]int64, len(v.extras)+2)
	if v.cpu != 0 {
		out[CPU] = v.cpu
	}
	if v.mem != 0 {
		out[Memory] = v.mem
	}
	for k, a := range v.extras {
		out[k] = a
	}
	return out
}
