package kernels

import (
	"encoding/binary"
	"slices"
	"sort"
	"testing"

	"fesia/internal/simd"
)

// FuzzSegmentKernel differentially tests Count, Intersect and Visit against
// the map reference on fuzzer-chosen segment contents and sizes, including
// the SmallMax cutover, and checks on every dispatch tier that the
// assembly small kernels (simd.CountSmall/IntersectSmall) agree with them.
func FuzzSegmentKernel(f *testing.F) {
	f.Add([]byte{4, 1, 2, 3, 4, 1, 2, 3, 4})
	f.Add([]byte{0})
	f.Add(make([]byte, 300))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// First byte splits the remainder into the two sets.
		cut := int(data[0])
		data = data[1:]
		if len(data) > 400 {
			data = data[:400]
		}
		if cut > len(data) {
			cut = len(data)
		}
		a := toSortedSet(data[:cut])
		b := toSortedSet(data[cut:])
		checkKernel(t, a, b)
		want := mapIntersect(a, b)
		dst := make([]uint32, min(len(a), len(b)))
		forEachTier(t, func(t *testing.T, tier string) {
			if got := simd.CountSmall(a, b); got != len(want) {
				t.Fatalf("%s CountSmall = %d, want %d\na=%v\nb=%v", tier, got, len(want), a, b)
			}
			n := simd.IntersectSmall(dst, a, b)
			if !slices.Equal(dst[:n], want) {
				t.Fatalf("%s IntersectSmall = %v, want %v (ordered output)", tier, dst[:n], want)
			}
		})
	})
}

func toSortedSet(data []byte) []uint32 {
	var out []uint32
	for i := 0; i+1 < len(data); i += 2 {
		// Small universe: frequent collisions and matches.
		out = append(out, uint32(binary.LittleEndian.Uint16(data[i:]))%512)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return slices.Compact(out)
}
