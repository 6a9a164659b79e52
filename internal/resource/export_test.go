package resource

// This file holds the dimension-wise maximum and minimum: exported for this package's tests, which read
// them, and called by no shipped code.

// Max returns the dimension-wise maximum of v and o.
func (v Vector) Max(o Vector) Vector {
	out := v.clone()
	if o.cpu > out.cpu {
		out.cpu = o.cpu
	}
	if o.mem > out.mem {
		out.mem = o.mem
	}
	for k, a := range o.extras {
		if a > out.extras[k] {
			out.set(k, a)
		}
	}
	return out
}

// Min returns the dimension-wise minimum over the union of dimensions.
// Dimensions present in only one operand count as zero in the other.
func (v Vector) Min(o Vector) Vector {
	out := Vector{cpu: min64(v.cpu, o.cpu), mem: min64(v.mem, o.mem)}
	for k, a := range v.extras {
		if m := min64(a, o.extras[k]); m != 0 {
			out.set(k, m)
		}
	}
	for k, a := range o.extras {
		if _, seen := v.extras[k]; seen {
			continue
		}
		if m := min64(0, a); m != 0 {
			out.set(k, m)
		}
	}
	return out
}
