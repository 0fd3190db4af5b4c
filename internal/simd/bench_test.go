package simd

import (
	"math/rand"
	"testing"
)

var sinkInt int
var sinkU32 uint32

func BenchmarkAndWords(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{64, 4096, 262144} {
		x := make([]uint64, n)
		y := make([]uint64, n)
		dst := make([]uint64, n)
		for i := range x {
			x[i] = rng.Uint64()
			y[i] = rng.Uint64()
		}
		b.Run(sizeName(n), func(b *testing.B) {
			b.SetBytes(int64(n * 8))
			for i := 0; i < b.N; i++ {
				sinkInt += AndWords(dst, x, y)
			}
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1<<18:
		return "256Kwords"
	case n >= 1<<12:
		return "4Kwords"
	default:
		return "64words"
	}
}

func BenchmarkSegmentMask8(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	words := make([]uint64, 1024)
	for i := range words {
		words[i] = rng.Uint64() & rng.Uint64() & rng.Uint64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkU32 |= SegmentMask8(words[i%1024])
	}
}
