// Package fesia is a Go implementation of FESIA, the fast and SIMD-efficient
// set intersection approach of Zhang, Lu, Spampinato and Franchetti
// (ICDE 2020).
//
// FESIA targets the common case where the intersection of two sets is much
// smaller than the sets themselves (keyword search, common-neighbor queries).
// Each set is preprocessed into a segmented bitmap: elements are hashed into
// an m-bit bitmap (m ≈ n·√w for SIMD width w), every s bits form a segment,
// and elements are stored segment-by-segment in a reordered array.
// Intersection then runs in two steps — a wide bitwise AND over the bitmaps
// prunes segments that cannot intersect, and a small segment kernel
// intersects the few surviving segment pairs. The expected cost is
// O(n/√w + r) instead of the O(n1 + n2) of merge-based methods.
//
// The bitmap filter runs on native 64-bit words, with AVX2/AVX-512 assembly
// where the CPU has it. Surviving segments hold a handful of elements, so
// every segment pair goes through one portable kernel — the paper's
// all-pairs comparison stream as a branch-free loop, one op per comparison —
// instead of the paper's precompiled per-size kernel library. The
// algorithmic behaviour — work proportional to intersection size and the
// strategy crossovers — is faithfully reproduced; the V-fold throughput of
// real vector instructions in the segment step is not claimed.
//
// # Quick start
//
//	a, _ := fesia.Build([]uint32{1, 4, 15, 21, 32, 34})
//	b, _ := fesia.Build([]uint32{2, 6, 12, 16, 21, 23})
//	common := fesia.Intersect(a, b) // [21]
//
// Sets that will be intersected together must be built with the same
// options (width, segment bits, seed); bitmap sizes adapt to
// each set's cardinality and are reconciled automatically.
//
// # Choosing a strategy
//
// IntersectCount picks between the two-step merge (FESIAmerge) and a
// per-element hash probe (FESIAhash) based on the size ratio of the inputs,
// mirroring the crossover at skew ≈ 1/4 in Fig. 11 of the paper. The
// specific strategies are available as MergeCount/HashCount when the
// adaptive choice needs overriding.
//
// # Reproduction harness
//
// cmd/fesiabench regenerates every table and figure of the paper's
// evaluation; see DESIGN.md and EXPERIMENTS.md.
package fesia
