package kernels

import (
	"fmt"
	"math/rand"
	"testing"

	"fesia/internal/simd"
)

var benchSink int

func benchPairs(sa, sb, count int) (as, bs [][]uint32) {
	rng := rand.New(rand.NewSource(int64(sa*100 + sb)))
	as = make([][]uint32, count)
	bs = make([][]uint32, count)
	for i := range as {
		as[i], bs[i] = overlappingPair(rng, sa, sb, min(sa, sb)/2, uint32(8*(sa+sb+2)))
	}
	return as, bs
}

// BenchmarkKernelSizes runs the portable segment kernel against the
// assembly CountSmall on the dispatch tier the host runs by default, from
// the tiny pairs the bitmap filter mostly produces up to the SmallMax
// cutover.
func BenchmarkKernelSizes(b *testing.B) {
	for _, sz := range []struct{ sa, sb int }{{1, 1}, {2, 3}, {4, 8}, {4, 15}, {12, 14}} {
		as, bs := benchPairs(sz.sa, sz.sb, 256)
		b.Run(fmt.Sprintf("%dx%d/portable", sz.sa, sz.sb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += Count(as[i%256], bs[i%256])
			}
		})
		b.Run(fmt.Sprintf("%dx%d/%s", sz.sa, sz.sb, simd.Backend()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += simd.CountSmall(as[i%256], bs[i%256])
			}
		})
	}
}

// BenchmarkSegmentMix runs 4096 segment pairs of random sizes, 1..max per
// side, through the portable kernel and the assembly CountSmall: the mixed,
// unpredictable size stream the bitmap filter hands the segment step, in
// contrast to BenchmarkKernelSizes' fixed sizes.
func BenchmarkSegmentMix(b *testing.B) {
	for _, top := range []int{2, 4, 12} {
		rng := rand.New(rand.NewSource(int64(top)))
		as := make([][]uint32, 4096)
		bs := make([][]uint32, 4096)
		for i := range as {
			sa, sb := 1+rng.Intn(top), 1+rng.Intn(top)
			as[i], bs[i] = overlappingPair(rng, sa, sb, rng.Intn(min(sa, sb)+1), uint32(8*(sa+sb+2)))
		}
		b.Run(fmt.Sprintf("1-%d/portable", top), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := range as {
					benchSink += Count(as[j], bs[j])
				}
			}
		})
		b.Run(fmt.Sprintf("1-%d/%s", top, simd.Backend()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := range as {
					benchSink += simd.CountSmall(as[j], bs[j])
				}
			}
		})
	}
}

func BenchmarkGenericFallback(b *testing.B) {
	as, bs := benchPairs(40, 45, 64)
	for i := 0; i < b.N; i++ {
		benchSink += Count(as[i%64], bs[i%64]) // over SmallMax -> merge
	}
}

func BenchmarkIntersectMaterialize(b *testing.B) {
	as, bs := benchPairs(6, 7, 256)
	dst := make([]uint32, 8)
	for i := 0; i < b.N; i++ {
		benchSink += Intersect(dst, as[i%256], bs[i%256])
	}
}
