package kernels

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// randomSortedSet returns n distinct sorted uint32 values drawn from
// [0, universe).
func randomSortedSet(rng *rand.Rand, n int, universe uint32) []uint32 {
	if n == 0 {
		return nil
	}
	seen := make(map[uint32]bool, n)
	out := make([]uint32, 0, n)
	for len(out) < n {
		v := rng.Uint32() % universe
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// overlappingPair returns two sorted distinct sets of sizes na and nb that
// share at least `share` elements (capped at the smaller size), to exercise
// both hit and miss lanes.
func overlappingPair(rng *rand.Rand, na, nb, share int, universe uint32) (a, b []uint32) {
	share = min(share, na, nb)
	common := randomSortedSet(rng, share, universe)
	fill := func(n int) []uint32 {
		s := append([]uint32(nil), common...)
		seen := make(map[uint32]bool, n)
		for _, v := range common {
			seen[v] = true
		}
		for len(s) < n {
			v := rng.Uint32() % universe
			if !seen[v] {
				seen[v] = true
				s = append(s, v)
			}
		}
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s
	}
	return fill(na), fill(nb)
}

// mapIntersect is the reference: the ascending elements of a found in b,
// computed through a hash set.
func mapIntersect(a, b []uint32) []uint32 {
	in := make(map[uint32]bool, len(b))
	for _, v := range b {
		in[v] = true
	}
	out := []uint32{}
	for _, v := range a {
		if in[v] {
			out = append(out, v)
		}
	}
	return out
}

// checkKernel runs Count, Intersect (into an exactly sized buffer) and Visit
// (emitted elements and returned count) on one pair and compares each with
// the map reference.
func checkKernel(t *testing.T, a, b []uint32) {
	t.Helper()
	want := mapIntersect(a, b)
	if got := Count(a, b); got != len(want) {
		t.Fatalf("Count(%dx%d) = %d, want %d\na=%v\nb=%v", len(a), len(b), got, len(want), a, b)
	}
	dst := make([]uint32, min(len(a), len(b)))
	n := Intersect(dst, a, b)
	if !slices.Equal(dst[:n], want) {
		t.Fatalf("Intersect(%dx%d) = %v, want %v\na=%v\nb=%v", len(a), len(b), dst[:n], want, a, b)
	}
	got := []uint32{}
	vn := Visit(a, b, func(v uint32) { got = append(got, v) })
	if !slices.Equal(got, want) || vn != len(want) {
		t.Fatalf("Visit(%dx%d) = %v, want %v\na=%v\nb=%v", len(a), len(b), got, want, a, b)
	}
}

func TestGenericCountAndIntersect(t *testing.T) {
	a := []uint32{1, 3, 5, 7, 9}
	b := []uint32{3, 4, 5, 9, 10, 11}
	if got := GenericCount(a, b); got != 3 {
		t.Errorf("GenericCount = %d, want 3", got)
	}
	dst := make([]uint32, 5)
	n := GenericIntersect(dst, a, b)
	if n != 3 || dst[0] != 3 || dst[1] != 5 || dst[2] != 9 {
		t.Errorf("GenericIntersect = %v (n=%d)", dst[:n], n)
	}
	if GenericCount(nil, b) != 0 || GenericCount(a, nil) != 0 {
		t.Error("GenericCount with empty input should be 0")
	}
}

// TestSegmentKernelExhaustive checks Count, Intersect and Visit against the
// map reference for every size pair 0..20 on each side — both sides of the
// SmallMax cutover — with collision-heavy, mixed and miss-heavy inputs.
func TestSegmentKernelExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for sa := 0; sa <= 20; sa++ {
		for sb := 0; sb <= 20; sb++ {
			for trial := 0; trial < 3; trial++ {
				// Small universes force collisions; large ones force misses.
				universe := max(uint32(1)<<uint(4+trial*10), uint32(sa+sb+1))
				a, b := overlappingPair(rng, sa, sb, trial*min(sa, sb)/2, universe)
				checkKernel(t, a, b)
			}
		}
	}
}

// TestIntersectOutputSorted verifies the documented ordering contract:
// matches come out in ascending order whichever side is shorter.
func TestIntersectOutputSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 600; trial++ {
		sa := rng.Intn(SmallMax + 1)
		sb := rng.Intn(SmallMax + 1)
		a, b := overlappingPair(rng, sa, sb, min(sa, sb), 64)
		dst := make([]uint32, min(sa, sb))
		n := Intersect(dst, a, b)
		for i := 1; i < n; i++ {
			if dst[i-1] >= dst[i] {
				t.Fatalf("Intersect(%dx%d) output not ascending: %v", sa, sb, dst[:n])
			}
		}
	}
}

// TestOverCapFallback: a side beyond SmallMax routes to the merge and stays
// correct, whether the other side is small or large.
func TestOverCapFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sz := range [][2]int{{SmallMax + 5, SmallMax + 9}, {3, SmallMax + 1}, {SmallMax + 1, 0}} {
		a, b := overlappingPair(rng, sz[0], sz[1], 6, 512)
		checkKernel(t, a, b)
	}
}

// TestIntersectShortDst: a destination shorter than the shorter side but
// long enough for the matches (the tail of an exactly sized result buffer)
// must neither overflow nor lose matches.
func TestIntersectShortDst(t *testing.T) {
	a := []uint32{2, 4, 6, 8}
	b := []uint32{1, 4, 8, 9, 11}
	dst := make([]uint32, 2)
	if n := Intersect(dst, a, b); n != 2 || dst[0] != 4 || dst[1] != 8 {
		t.Fatalf("Intersect into 2-slot dst = %v (n=%d), want [4 8]", dst[:n], n)
	}
	if n := Intersect(nil, []uint32{1, 2}, []uint32{3, 5}); n != 0 {
		t.Fatalf("Intersect of disjoint lists into nil dst = %d, want 0", n)
	}
}

// TestSegmentKernelQuick is the property form of the exhaustive test: Count
// agrees with the merge on arbitrary sizes up to twice the cutover.
func TestSegmentKernelQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seedA, seedB uint32) bool {
		sa := int(seedA % 32)
		sb := int(seedB % 32)
		a, b := overlappingPair(rng, sa, sb, int(seedA%8), 256)
		return Count(a, b) == GenericCount(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHelpers(t *testing.T) {
	// eqbit is branch-free equality over the full uint32 domain.
	cases := []struct {
		x, y uint32
		want uint32
	}{
		{0, 0, 1}, {1, 1, 1}, {0, 1, 0}, {^uint32(0), ^uint32(0), 1},
		{1 << 31, 1 << 31, 1}, {1 << 31, 0, 0}, {0x7FFFFFFF, 0xFFFFFFFF, 0},
	}
	for _, c := range cases {
		if got := eqbit(c.x, c.y); got != c.want {
			t.Errorf("eqbit(%#x, %#x) = %d, want %d", c.x, c.y, got, c.want)
		}
	}
}

// Property: eqbit agrees with == everywhere.
func TestEqbitProperty(t *testing.T) {
	f := func(x, y uint32) bool {
		want := uint32(0)
		if x == y {
			want = 1
		}
		return eqbit(x, y) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
