// Package simd provides the data-parallel primitives of the FESIA
// implementation.
//
// Word-level bitmap operations (AndWords and friends) carry the
// bitmap-level filtering step: a 64-bit word AND is genuine data-parallel
// hardware work in Go, so the coarse-grained pruning phase keeps its real
// O(m/w) character. Segment transformations (SegmentMask8/16/32) and the
// scalar bit utilities (Tzcnt, Popcount — wrapping math/bits, standing in
// for x86 TZCNT/POPCNT) implement the non-zero segment extraction of the
// paper's Section IV.
//
// On amd64 an assembly backend climbs an ISA ladder (scalar → AVX2 →
// AVX-512) chosen once at start-up from cpuid: the fused filter
// (AndSegMasks), the list probe (Contains), the gathered hash probe
// (ProbeStage) and the size-specialized small kernels CountSmall and
// IntersectSmall, the hardware form of the paper's Fig. 2 broadcast/compare
// stream. Every routine has a pure-Go reference it must match bit for bit;
// the noasm build tag and other architectures use only those references.
//
// Width names the ISA register widths of the paper (SSE, AVX, AVX512).
package simd
