package kernels

import (
	"math/rand"
	"slices"
	"testing"

	"fesia/internal/simd"
)

// forEachTier runs f once per available dispatch tier with the ladder forced
// to exactly that rung — including forced-AVX2 on AVX-512 hardware —
// restoring the dispatch state afterwards.
func forEachTier(t *testing.T, f func(t *testing.T, tier string)) {
	run := func(tier string, asm, avx512 bool) {
		t.Run(tier, func(t *testing.T) {
			prevAsm := simd.SetAsmEnabled(asm)
			prevAvx512 := simd.SetAvx512Enabled(avx512)
			defer func() {
				simd.SetAsmEnabled(prevAsm)
				simd.SetAvx512Enabled(prevAvx512)
			}()
			f(t, tier)
		})
	}
	run("scalar", false, false)
	if simd.HasAsm() {
		run("avx2", true, false)
	}
	if simd.HasAVX512() {
		run("avx512", true, true)
	}
}

// TestAsmKernelsParity checks that the assembly CountSmall — the
// size-specialized vector kernel Figures 4-6 measure — counts exactly what
// the portable segment kernel counts, over every size pair up to the
// AVX-512 register plus a margin beyond it, on every tier.
func TestAsmKernelsParity(t *testing.T) {
	if !simd.HasAsm() {
		t.Skip("assembly backend not available")
	}
	prevAsm := simd.SetAsmEnabled(true)
	defer simd.SetAsmEnabled(prevAsm)

	rng := rand.New(rand.NewSource(11))
	for sa := 0; sa <= 18; sa++ {
		for sb := 0; sb <= 18; sb++ {
			for trial := 0; trial < 20; trial++ {
				span := uint32(max(4+rng.Intn(28), sa+1, sb+1))
				a := randomSortedSet(rng, sa, span)
				b := randomSortedSet(rng, sb, span)
				if got, want := simd.CountSmall(a, b), Count(a, b); got != want {
					t.Fatalf("sa=%d sb=%d a=%v b=%v: CountSmall=%d Count=%d", sa, sb, a, b, got, want)
				}
			}
		}
	}
}

// TestAsmKernelsInterParity checks the materializing twin on every tier:
// simd.IntersectSmall (compress-store on the AVX-512 rung, the merge below
// it) must write the same elements in the same order as Intersect.
func TestAsmKernelsInterParity(t *testing.T) {
	if !simd.HasAsm() {
		t.Skip("assembly backend not available")
	}
	forEachTier(t, func(t *testing.T, tier string) {
		rng := rand.New(rand.NewSource(13))
		for sa := 0; sa <= 18; sa++ {
			for sb := 0; sb <= 18; sb++ {
				for trial := 0; trial < 4; trial++ {
					span := uint32(sa + sb + 4 + rng.Intn(28))
					a := randomSortedSet(rng, sa, span)
					b := randomSortedSet(rng, sb, span)
					got := make([]uint32, min(sa, sb))
					want := make([]uint32, min(sa, sb))
					gn := simd.IntersectSmall(got, a, b)
					wn := Intersect(want, a, b)
					if !slices.Equal(got[:gn], want[:wn]) {
						t.Fatalf("tier=%s sa=%d sb=%d a=%v b=%v: IntersectSmall=%v Intersect=%v",
							tier, sa, sb, a, b, got[:gn], want[:wn])
					}
				}
			}
		}
	})
}
