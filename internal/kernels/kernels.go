// Package kernels implements FESIA's segment-intersection kernel (Sections V
// and VI of the paper): the step that intersects the two small sorted
// element lists of every segment pair surviving the bitmap filter.
//
// The paper dispatches each pair through a precompiled per-size kernel
// library indexed by the control code of Listing 2. Here one portable kernel
// serves every pair and is called directly. Segments hold a handful of
// elements (m = n·√w bits spread n elements thinly), so when both sides fit
// SmallMax the kernel runs the paper's all-pairs comparison as a branch-free
// loop over the shorter side — the broadcast/compare/OR stream of Fig. 2,
// one eqbit per comparison. Larger pairs take the scalar two-pointer merge,
// the paper's "default: GeneralIntersection()" arm.
//
// The hand-written size-specialized vector kernels (simd.CountSmall and
// simd.IntersectSmall) are measured against this loop in Figures 4-6; the
// modelled code size of the paper's per-size library lives on in
// internal/kernels/kernelgen for Table II.
package kernels

// SmallMax is the largest segment side the all-pairs loop handles; pairs
// with a longer side take the two-pointer merge. Fifteen is twice the AVX
// register's eight lanes minus one, the cap of the paper's AVX library.
const SmallMax = 15

// eqbit returns 1 when x == y and 0 otherwise, without a branch: for
// d = x^y != 0, d|-d has its sign bit set, so the arithmetic shift produces
// all-ones, whose complement's low bit is 0.
func eqbit(x, y uint32) uint32 {
	d := x ^ y
	return ^uint32(int32(d|-d)>>31) & 1
}

// Count returns |a ∩ b| for two sorted, duplicate-free lists. The all-pairs
// loop runs the shorter side outermost, so the fewest inner loops exit.
func Count(a, b []uint32) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) > SmallMax {
		return GenericCount(a, b)
	}
	var n uint32
	for _, x := range a {
		for _, y := range b {
			n += eqbit(x, y)
		}
	}
	return int(n)
}

// Intersect writes a ∩ b into dst in ascending order and returns the count.
// dst needs room for min(len(a), len(b)) elements: the all-pairs loop stores
// every element of the shorter side and advances only on a match. When dst
// is shorter than that (the tail of an exactly sized result buffer), the
// merge, which stores matches only, runs instead.
func Intersect(dst, a, b []uint32) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) > SmallMax || len(dst) < len(a) {
		return GenericIntersect(dst, a, b)
	}
	n := 0
	for _, x := range a {
		var hit uint32
		for _, y := range b {
			hit |= eqbit(x, y)
		}
		dst[n] = x
		n += int(hit)
	}
	return n
}

// Visit streams a ∩ b through emit in ascending order, with no destination
// buffer, and returns the count.
func Visit(a, b []uint32, emit func(uint32)) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) > SmallMax {
		return GenericVisit(a, b, emit)
	}
	n := 0
	for _, x := range a {
		var hit uint32
		for _, y := range b {
			hit |= eqbit(x, y)
		}
		if hit != 0 {
			emit(x)
			n++
		}
	}
	return n
}

// GenericCount counts |a ∩ b| for sorted sets of any size with a scalar
// two-pointer merge.
func GenericCount(a, b []uint32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		if av < bv {
			i++
		} else if av > bv {
			j++
		} else {
			i++
			j++
			n++
		}
	}
	return n
}

// GenericIntersect merges a ∩ b into dst (ascending) for sets of any size.
func GenericIntersect(dst, a, b []uint32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		if av < bv {
			i++
		} else if av > bv {
			j++
		} else {
			dst[n] = av
			n++
			i++
			j++
		}
	}
	return n
}

// GenericVisit streams a ∩ b (ascending) through emit with a scalar
// two-pointer merge, no destination buffer required, and returns the count.
func GenericVisit(a, b []uint32, emit func(uint32)) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		if av < bv {
			i++
		} else if av > bv {
			j++
		} else {
			emit(av)
			n++
			i++
			j++
		}
	}
	return n
}
