package core

import (
	"math/rand"
	"slices"
	"testing"

	"fesia/internal/simd"
)

// execTestSets builds a deterministic trio of compatible sets, the middle one
// skewed small so the adaptive strategy exercises both branches.
func execTestSets(t testing.TB, w simd.Width) (sa, sb, sc *Set) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	cfg := Config{Width: w}
	sa = MustNewSet(randSet(rng, 4000, 1<<16), cfg)
	sb = MustNewSet(randSet(rng, 3000, 1<<16), cfg)
	sc = MustNewSet(randSet(rng, 500, 1<<16), cfg)
	return sa, sb, sc
}

// TestExecutorAllocs is the contract at the heart of this refactor: once an
// Executor has warmed up on a workload, the query path performs zero heap
// allocations.
func TestExecutorAllocs(t *testing.T) {
	sa, sb, sc := execTestSets(t, simd.WidthAVX)
	e := NewExecutor()
	dst := make([]uint32, 4000)
	ks := []*Set{sa, sb, sc}

	// Warm up every path so buffers reach their steady-state sizes.
	e.Count(sa, sb)
	e.CountHash(sc, sa)
	e.Intersect(dst, sa, sb)
	e.CountK(ks...)
	e.IntersectK(dst, ks...)
	e.Visit(sa, sb, func(uint32) {})
	e.VisitK(func(uint32) {}, ks...)

	cases := []struct {
		name string
		fn   func()
	}{
		{"Count", func() { e.Count(sa, sb) }},
		{"CountMerge", func() { e.CountMerge(sa, sb) }},
		{"CountHash", func() { e.CountHash(sc, sa) }},
		{"Intersect", func() { e.Intersect(dst, sa, sb) }},
		{"CountK", func() { e.CountK(ks...) }},
		{"IntersectK", func() { e.IntersectK(dst, ks...) }},
		{"Visit/merge", func() { e.pair(nil, stratMerge, sa, sb, nil, func(uint32) {}) }},
		{"Visit/hash", func() { e.pair(nil, stratHash, sc, sa, nil, func(uint32) {}) }},
		{"VisitK", func() { e.VisitK(func(uint32) {}, ks...) }},
	}
	for _, c := range cases {
		if avg := testing.AllocsPerRun(20, c.fn); avg != 0 {
			t.Errorf("%s: %.1f allocs/op on a warm executor, want 0", c.name, avg)
		}
	}
}

// TestVisitorSliceParity checks that the streaming visitor paths emit exactly
// the elements (and order) of the materializing slice paths, across all three
// widths and all strategies.
func TestVisitorSliceParity(t *testing.T) {
	for _, w := range []simd.Width{simd.WidthSSE, simd.WidthAVX, simd.WidthAVX512} {
		sa, sb, sc := execTestSets(t, w)
		e := NewExecutor()
		dst := make([]uint32, 4000)

		check := func(name string, sliceN int, visit func(emit Visitor)) {
			t.Helper()
			var got []uint32
			visit(func(v uint32) { got = append(got, v) })
			want := dst[:sliceN]
			if !slices.Equal(got, want) {
				t.Errorf("w=%v %s: visitor emitted %d elements, slice path wrote %d (or order differs)",
					w, name, len(got), sliceN)
			}
		}

		check("merge", IntersectMerge(dst, sa, sb), func(emit Visitor) { e.pair(nil, stratMerge, sa, sb, nil, emit) })
		check("hash", intersectHash(dst, sc, sa), func(emit Visitor) { e.pair(nil, stratHash, sc, sa, nil, emit) })
		check("adaptive", Intersect(dst, sc, sa), func(emit Visitor) { e.Visit(sc, sa, emit) })
		check("kway", e.IntersectK(dst, sa, sb, sc), func(emit Visitor) { e.VisitK(emit, sa, sb, sc) })
		check("kway1", e.IntersectK(dst, sa), func(emit Visitor) { e.VisitK(emit, sa) })
		check("kway2", e.IntersectK(dst, sa, sb), func(emit Visitor) { e.VisitK(emit, sa, sb) })
	}
}

// TestExecutorMatchesFreeFunctions pins the executor methods to the
// package-level reference implementations on randomized inputs.
func TestExecutorMatchesFreeFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	e := NewExecutor()
	for trial := 0; trial < 30; trial++ {
		cfg := Config{Width: simd.WidthAVX}
		na, nb := rng.Intn(3000), rng.Intn(3000)
		sa := MustNewSet(randSet(rng, na, 1<<15), cfg)
		sb := MustNewSet(randSet(rng, nb, 1<<15), cfg)
		sc := MustNewSet(randSet(rng, rng.Intn(1000), 1<<15), cfg)

		if got, want := e.Count(sa, sb), Count(sa, sb); got != want {
			t.Fatalf("trial %d: Count = %d, want %d", trial, got, want)
		}
		if got, want := e.CountK(sa, sb, sc), CountK(sa, sb, sc); got != want {
			t.Fatalf("trial %d: CountK = %d, want %d", trial, got, want)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			if got, want := e.CountMergeParallel(sa, sb, workers), CountMerge(sa, sb); got != want {
				t.Fatalf("trial %d workers %d: CountMergeParallel = %d, want %d", trial, workers, got, want)
			}
			if got, want := e.CountKParallel(workers, sa, sb, sc), CountK(sa, sb, sc); got != want {
				t.Fatalf("trial %d workers %d: CountKParallel = %d, want %d", trial, workers, got, want)
			}
		}
	}
}

// FuzzVisitParity fuzzes the visitor-vs-slice equivalence over arbitrary set
// contents, reusing the pair decoding of FuzzIntersect.
func FuzzVisitParity(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0))
	f.Add([]byte{0xff, 0x01, 0x80, 0x20, 0x33}, uint8(1))
	f.Add([]byte{}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		ea, eb, cfg := decodeSets(data)
		sa, err := NewSet(ea, cfg)
		if err != nil {
			t.Skip()
		}
		sb, err := NewSet(eb, cfg)
		if err != nil {
			t.Skip()
		}
		e := NewExecutor()
		dst := make([]uint32, max(len(ea), len(eb))+1)
		var got []uint32
		var n int
		switch mode % 3 {
		case 0:
			n = IntersectMerge(dst, sa, sb)
			e.pair(nil, stratMerge, sa, sb, nil, func(v uint32) { got = append(got, v) })
		case 1:
			n = intersectHash(dst, sa, sb)
			e.pair(nil, stratHash, sa, sb, nil, func(v uint32) { got = append(got, v) })
		case 2:
			n = e.IntersectK(dst, sa, sb)
			e.VisitK(func(v uint32) { got = append(got, v) }, sa, sb)
		}
		if !slices.Equal(got, dst[:n]) {
			t.Fatalf("mode %d: visitor path emitted %v, slice path wrote %v", mode%3, got, dst[:n])
		}
	})
}
