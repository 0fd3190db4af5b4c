package fesia

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"fesia/internal/core"
)

func execRandElems(rng *rand.Rand, n int, universe uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = rng.Uint32() % universe
	}
	return out
}

// TestExecutorMatchesWrappers pins every Executor method to the package-level
// compatibility wrapper it backs.
func TestExecutorMatchesWrappers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	e := NewExecutor()
	for trial := 0; trial < 20; trial++ {
		a := MustBuild(execRandElems(rng, 1+rng.Intn(3000), 1<<15))
		b := MustBuild(execRandElems(rng, 1+rng.Intn(3000), 1<<15))
		c := MustBuild(execRandElems(rng, 1+rng.Intn(500), 1<<15))

		if got, want := e.IntersectCount(a, b), IntersectCount(a, b); got != want {
			t.Fatalf("trial %d: IntersectCount = %d, want %d", trial, got, want)
		}
		if got, want := e.MergeCount(a, b), MergeCount(a, b); got != want {
			t.Fatalf("trial %d: MergeCount = %d, want %d", trial, got, want)
		}
		if got, want := e.HashCount(a, b), HashCount(a, b); got != want {
			t.Fatalf("trial %d: HashCount = %d, want %d", trial, got, want)
		}
		if got, want := e.Intersect(a, b), Intersect(a, b); !slices.Equal(got, want) {
			t.Fatalf("trial %d: Intersect = %v, want %v", trial, got, want)
		}
		if got, want := e.IntersectCountK(a, b, c), IntersectCountK(a, b, c); got != want {
			t.Fatalf("trial %d: IntersectCountK = %d, want %d", trial, got, want)
		}
		if got, want := e.IntersectK(a, b, c), IntersectK(a, b, c); !slices.Equal(got, want) {
			t.Fatalf("trial %d: IntersectK = %v, want %v", trial, got, want)
		}
		for _, workers := range []int{1, 2, 8} {
			if got, want := e.IntersectCountParallel(a, b, workers), e.IntersectCount(a, b); got != want {
				t.Fatalf("trial %d workers %d: IntersectCountParallel = %d, want %d", trial, workers, got, want)
			}
			if got, want := e.IntersectCountKParallel(workers, a, b, c), e.IntersectCountK(a, b, c); got != want {
				t.Fatalf("trial %d workers %d: IntersectCountKParallel = %d, want %d", trial, workers, got, want)
			}
		}
	}
}

// TestIntersectIntoOrderingContract checks the documented contract of the
// unsorted fast path: same multiset of values as Intersect, segment order
// preserved between repeat calls, and sorting recovers the ascending result.
func TestIntersectIntoOrderingContract(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	e := NewExecutor()
	a := MustBuild(execRandElems(rng, 4000, 1<<15))
	b := MustBuild(execRandElems(rng, 3000, 1<<15))

	want := Intersect(a, b) // ascending
	dst := make([]uint32, min(a.Len(), b.Len()))
	n := e.IntersectInto(dst, a, b)
	if n != len(want) {
		t.Fatalf("IntersectInto count = %d, want %d", n, len(want))
	}
	got := slices.Clone(dst[:n])
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("IntersectInto values differ from Intersect after sorting")
	}

	// Deterministic: repeat calls produce the identical order.
	again := make([]uint32, len(dst))
	m := e.IntersectInto(again, a, b)
	if !slices.Equal(again[:m], dst[:n]) {
		t.Fatal("IntersectInto order is not deterministic across calls")
	}

	// Top-level wrapper agrees.
	viaWrapper := make([]uint32, len(dst))
	k := IntersectInto(viaWrapper, a, b)
	if !slices.Equal(viaWrapper[:k], dst[:n]) {
		t.Fatal("package-level IntersectInto disagrees with Executor.IntersectInto")
	}
}

// TestIntersectAppend checks the amortized append path.
func TestIntersectAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	e := NewExecutor()
	a := MustBuild(execRandElems(rng, 2000, 1<<14))
	b := MustBuild(execRandElems(rng, 2000, 1<<14))
	want := Intersect(a, b)

	var buf []uint32
	for round := 0; round < 3; round++ {
		buf = e.IntersectAppend(buf[:0], a, b)
		got := slices.Clone(buf)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: IntersectAppend values differ", round)
		}
	}
	// Appending onto existing content preserves the prefix.
	prefix := []uint32{1, 2, 3}
	out := e.IntersectAppend(slices.Clone(prefix), a, b)
	if !slices.Equal(out[:3], prefix) {
		t.Fatal("IntersectAppend clobbered the existing prefix")
	}
	if len(out) != 3+len(want) {
		t.Fatalf("IntersectAppend appended %d values, want %d", len(out)-3, len(want))
	}
}

// TestPublicVisit checks the streaming methods against the slice paths.
func TestPublicVisit(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	e := NewExecutor()
	a := MustBuild(execRandElems(rng, 2000, 1<<14))
	b := MustBuild(execRandElems(rng, 1500, 1<<14))
	c := MustBuild(execRandElems(rng, 400, 1<<14))

	dst := make([]uint32, 2000)
	n := e.IntersectInto(dst, a, b)
	var got []uint32
	e.Visit(a, b, func(v uint32) { got = append(got, v) })
	if !slices.Equal(got, dst[:n]) {
		t.Fatal("Visit emission differs from IntersectInto")
	}

	n = e.IntersectKInto(dst, a, b, c)
	got = got[:0]
	e.VisitK(func(v uint32) { got = append(got, v) }, a, b, c)
	if !slices.Equal(got, dst[:n]) {
		t.Fatal("VisitK emission differs from IntersectKInto")
	}
}

// TestPublicExecutorAllocs asserts the acceptance criterion at the public
// layer: a warm Executor's counting and Into paths do not allocate.
func TestPublicExecutorAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	e := NewExecutor()
	a := MustBuild(execRandElems(rng, 3000, 1<<15))
	b := MustBuild(execRandElems(rng, 2500, 1<<15))
	c := MustBuild(execRandElems(rng, 400, 1<<15))
	dst := make([]uint32, 3000)
	ks := []*Set{a, b, c}

	e.IntersectCount(a, b)
	e.IntersectInto(dst, a, b)
	e.IntersectCountK(ks...)
	e.IntersectKInto(dst, ks...)

	cases := []struct {
		name string
		fn   func()
	}{
		{"IntersectCount", func() { e.IntersectCount(a, b) }},
		{"IntersectInto", func() { e.IntersectInto(dst, a, b) }},
		{"IntersectCountK", func() { e.IntersectCountK(ks...) }},
		{"IntersectKInto", func() { e.IntersectKInto(dst, ks...) }},
	}
	for _, c := range cases {
		if avg := testing.AllocsPerRun(20, c.fn); avg != 0 {
			t.Errorf("%s: %.1f allocs/op on a warm Executor, want 0", c.name, avg)
		}
	}
}

// TestPublicManyParity pins the one-vs-many batch methods to pairwise loops
// over the corresponding two-way methods.
func TestPublicManyParity(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	q := MustBuild(execRandElems(rng, 3000, 1<<15))
	lists := make([][]uint32, 24)
	for i := range lists {
		lists[i] = execRandElems(rng, 1+rng.Intn(6000), 1<<15)
	}
	cands, err := BuildBatch(lists)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExecutor()

	out := make([]int, len(cands))
	e.IntersectCountMany(q, cands, out)
	bound := 0
	for i, c := range cands {
		if want := e.IntersectCount(q, c); out[i] != want {
			t.Fatalf("candidate %d: IntersectCountMany %d, want %d", i, out[i], want)
		}
		bound += min(q.Len(), c.Len())
	}

	outP := make([]int, len(cands))
	e.IntersectCountManyParallel(q, cands, outP, 3)
	if !slices.Equal(out, outP) {
		t.Fatalf("parallel counts %v, sequential %v", outP, out)
	}

	dst := make([]uint32, bound)
	counts := make([]int, len(cands))
	total := e.IntersectManyInto(dst, counts, q, cands)
	if !slices.Equal(counts, out) {
		t.Fatalf("IntersectManyInto counts %v, want %v", counts, out)
	}

	visited := make([]int, len(cands))
	sum := 0
	e.VisitMany(q, cands, func(cand int, v uint32) {
		visited[cand]++
		sum++
	})
	if !slices.Equal(visited, out) || sum != total {
		t.Fatalf("VisitMany counts %v (sum %d), want %v (total %d)", visited, sum, out, total)
	}
}

// TestPooledWrappersAttachLate: the package-level wrappers check out pooled
// executors through the same attach seam as everything else, so a pooled
// executor created before EnableStats or EnablePlanner still records once
// they are on.
func TestPooledWrappersAttachLate(t *testing.T) {
	core.EnableStats(nil)
	core.EnablePlanner(nil)
	defer core.EnableStats(nil)
	defer core.EnablePlanner(nil)
	runtime.GC() // empty the executor pool: no pooled executor is attached
	runtime.GC()
	rng := rand.New(rand.NewSource(41))
	a := MustBuild(execRandElems(rng, 3000, 1<<15))
	b := MustBuild(execRandElems(rng, 2500, 1<<15))
	c := MustBuild(execRandElems(rng, 2000, 1<<15))

	IntersectCount(a, b) // the pooled executor now predates both instruments
	EnableStats()
	EnablePlanner(WithPlanner(PlannerPrior))
	const calls = 10
	for range calls {
		IntersectCount(a, b)
		IntersectCountK(a, b, c)
	}
	snap := Stats()
	if got := snap.Counter(CtrQueriesMerge) + snap.Counter(CtrQueriesHash); got != calls {
		t.Errorf("pair queries recorded = %d, want %d", got, calls)
	}
	if got := snap.Counter(CtrQueriesKWay); got != calls {
		t.Errorf("k-way queries recorded = %d, want %d", got, calls)
	}
	if got := snap.Counter(CtrPlanSegSegMerge) + snap.Counter(CtrPlanSegSegHash); got != calls {
		t.Errorf("planner decisions recorded = %d, want %d", got, calls)
	}
}

// TestPackageWrappersAllocs: the package-level wrappers reuse pooled
// executors, so their warm pair paths do not allocate either.
func TestPackageWrappersAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a := MustBuild(execRandElems(rng, 3000, 1<<15))
	b := MustBuild(execRandElems(rng, 2500, 1<<15))
	dst := make([]uint32, 3000)
	cases := []struct {
		name string
		fn   func()
	}{
		{"IntersectCount", func() { IntersectCount(a, b) }},
		{"IntersectInto", func() { IntersectInto(dst, a, b) }},
	}
	for _, c := range cases {
		c.fn()
		if avg := testing.AllocsPerRun(20, c.fn); avg != 0 {
			t.Errorf("%s: %.1f allocs/op warm, want 0", c.name, avg)
		}
	}
}
