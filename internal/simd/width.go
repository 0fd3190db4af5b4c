package simd

import "math/bits"

// Width identifies a vector ISA by its register width in bits: the paper's
// w, which sets the default bitmap scale m = n·√w.
type Width int

// Supported ISA widths. The names follow the x86 instruction-set families
// the paper evaluates.
const (
	WidthSSE    Width = 128
	WidthAVX    Width = 256
	WidthAVX512 Width = 512
)

// Lanes reports the number of 32-bit lanes in a register of this width
// (the paper's V = w/Se with Se = 32).
func (w Width) Lanes() int { return int(w) / 32 }

// Bits reports the register width in bits (the paper's w).
func (w Width) Bits() int { return int(w) }

// String returns the conventional ISA name for the width.
func (w Width) String() string {
	switch w {
	case WidthSSE:
		return "SSE"
	case WidthAVX:
		return "AVX"
	case WidthAVX512:
		return "AVX512"
	default:
		return "Width?"
	}
}

// Valid reports whether w is one of the supported widths.
func (w Width) Valid() bool {
	return w == WidthSSE || w == WidthAVX || w == WidthAVX512
}

// ---------------------------------------------------------------------------
// Scalar bit utilities (TZCNT / POPCNT / LZCNT stand-ins).
// ---------------------------------------------------------------------------

// Tzcnt32 returns the number of trailing zero bits in x (x86 TZCNT).
// Tzcnt32(0) == 32.
func Tzcnt32(x uint32) int { return bits.TrailingZeros32(x) }

// Tzcnt64 returns the number of trailing zero bits in x. Tzcnt64(0) == 64.
func Tzcnt64(x uint64) int { return bits.TrailingZeros64(x) }

// Popcount32 returns the number of set bits in x (x86 POPCNT).
func Popcount32(x uint32) int { return bits.OnesCount32(x) }

// Popcount64 returns the number of set bits in x.
func Popcount64(x uint64) int { return bits.OnesCount64(x) }

// ClearLowestSet clears the least-significant set bit of x (x86 BLSR).
func ClearLowestSet(x uint32) uint32 { return x & (x - 1) }

// ClearLowestSet64 clears the least-significant set bit of x.
func ClearLowestSet64(x uint64) uint64 { return x & (x - 1) }
