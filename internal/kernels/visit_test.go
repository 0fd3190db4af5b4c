package kernels

import (
	"math/rand"
	"slices"
	"testing"
)

// TestVisitMatchesIntersect checks the streaming entry point against the
// materializing one: Visit must emit exactly what Intersect writes, in the
// same order, on both sides of the SmallMax cutover.
func TestVisitMatchesIntersect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sizes := []int{0, 1, 2, SmallMax / 2, SmallMax, SmallMax + 5}
	for _, sa := range sizes {
		for _, sb := range sizes {
			a, b := overlappingPair(rng, sa, sb, min(sa, sb)/2, 1<<10)
			dst := make([]uint32, min(sa, sb))
			n := Intersect(dst, a, b)
			var got []uint32
			Visit(a, b, func(v uint32) { got = append(got, v) })
			if !slices.Equal(got, dst[:n]) {
				t.Fatalf("Visit(%dx%d) emitted %v, Intersect wrote %v", sa, sb, got, dst[:n])
			}
		}
	}
}

// TestGenericVisit checks the streaming scalar merge against GenericIntersect.
func TestGenericVisit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		a := randomSortedSet(rng, rng.Intn(100), 1<<9)
		b := randomSortedSet(rng, rng.Intn(100), 1<<9)
		want := make([]uint32, min(len(a), len(b)))
		n := GenericIntersect(want, a, b)
		var got []uint32
		vn := GenericVisit(a, b, func(v uint32) { got = append(got, v) })
		if !slices.Equal(got, want[:n]) || vn != n {
			t.Fatalf("trial %d: GenericVisit emitted %v, want %v", trial, got, want[:n])
		}
	}
}
