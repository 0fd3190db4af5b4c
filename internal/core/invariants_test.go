package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Algebraic invariants of set intersection, checked with testing/quick on
// top of the FESIA implementation.

func TestInvariantSelfIntersection(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		s := MustNewSet(randSet(rng, int(n%3000), 1<<16), DefaultConfig())
		return CountMerge(s, s) == s.Len() &&
			CountHash(s, s) == s.Len() &&
			Count(s, s) == s.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestInvariantCommutativity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := MustNewSet(randSet(rng, rng.Intn(2000), 1<<14), DefaultConfig())
		b := MustNewSet(randSet(rng, rng.Intn(2000), 1<<14), DefaultConfig())
		return CountMerge(a, b) == CountMerge(b, a) &&
			CountHash(a, b) == CountHash(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// The intersection is bounded by both inputs, and intersecting with a
// superset is the identity.
func TestInvariantBoundsAndAbsorption(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		elems := randSet(rng, 1000+rng.Intn(1000), 1<<15)
		sub := elems[:len(elems)/2]
		super := MustNewSet(elems, DefaultConfig())
		subset := MustNewSet(sub, DefaultConfig())
		got := CountMerge(super, subset)
		return got == subset.Len() && got <= super.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Associativity through the k-way path: CountK(a,b,c) equals nested 2-way
// materialized intersections in either association order.
func TestInvariantKWayAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		la := randSet(rng, 600, 3000)
		lb := randSet(rng, 600, 3000)
		lc := randSet(rng, 600, 3000)
		a := MustNewSet(la, DefaultConfig())
		b := MustNewSet(lb, DefaultConfig())
		c := MustNewSet(lc, DefaultConfig())

		nested := func(x, y, z *Set) int {
			buf := make([]uint32, x.Len())
			n := IntersectMerge(buf, x, y)
			xy := MustNewSet(buf[:n], DefaultConfig())
			return CountMerge(xy, z)
		}
		k := CountK(a, b, c)
		return k == nested(a, b, c) && k == nested(b, c, a) && k == nested(c, a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// Range-partitioned materialization must produce the identical sequence
// (not just the same multiset): concatenating the merge loop's output over
// the word ranges a parallel split would hand its workers preserves segment
// order.
func TestInvariantParallelOrderExact(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 10; trial++ {
		a := MustNewSet(randSet(rng, 3000, 1<<15), DefaultConfig())
		b := MustNewSet(randSet(rng, 3000, 1<<15), DefaultConfig())
		seq := make([]uint32, 3000)
		par := make([]uint32, 3000)
		ns := IntersectMerge(seq, a, b)
		x, y := ordered(a, b)
		words := len(x.bm.Words())
		workers := 1 + rng.Intn(7)
		chunk := (words + workers - 1) / workers
		np := 0
		for lo := 0; lo < words; lo += chunk {
			n, _, _ := new(instr).mergeRange(nil, x, y, lo, min(lo+chunk, words), par[np:], nil)
			np += n
		}
		if ns != np || ns != CountMergeParallel(a, b, workers) {
			t.Fatalf("counts differ: %d vs %d", ns, np)
		}
		for i := 0; i < ns; i++ {
			if seq[i] != par[i] {
				t.Fatalf("order differs at %d: %d vs %d", i, seq[i], par[i])
			}
		}
	}
}

// TestConcurrentReaders validates the documented claim that a Set is safe
// for concurrent reads: many goroutines hammer the same pair of sets with
// every read operation while the race detector watches.
func TestConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	a := MustNewSet(randSet(rng, 5000, 1<<16), DefaultConfig())
	b := MustNewSet(randSet(rng, 5000, 1<<16), DefaultConfig())
	wantMerge := CountMerge(a, b)
	wantHash := CountHash(a, b)

	done := make(chan error, 16)
	for g := 0; g < 16; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				switch (g + i) % 5 {
				case 0:
					if CountMerge(a, b) != wantMerge {
						done <- errMismatch
						return
					}
				case 1:
					if CountHash(a, b) != wantHash {
						done <- errMismatch
						return
					}
				case 2:
					a.Contains(uint32(i * 37))
				case 3:
					dst := make([]uint32, 5000)
					if IntersectMerge(dst, a, b) != wantMerge {
						done <- errMismatch
						return
					}
				case 4:
					if CountMergeParallel(a, b, 4) != wantMerge {
						done <- errMismatch
						return
					}
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 16; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent read returned a wrong result" }

// Every element reported by IntersectMerge is genuinely in both inputs, and
// every common element is reported exactly once (no duplicates).
func TestInvariantSoundAndComplete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		la := randSet(rng, rng.Intn(1500), 1<<13)
		lb := randSet(rng, rng.Intn(1500), 1<<13)
		a := MustNewSet(la, DefaultConfig())
		b := MustNewSet(lb, DefaultConfig())
		dst := make([]uint32, min(a.Len(), b.Len())+1)
		n := IntersectMerge(dst, a, b)
		seen := map[uint32]bool{}
		for _, v := range dst[:n] {
			if seen[v] {
				return false // duplicate
			}
			seen[v] = true
			if !a.Contains(v) || !b.Contains(v) {
				return false // unsound
			}
		}
		for _, v := range la {
			if b.Contains(v) && a.Contains(v) && !seen[v] {
				return false // incomplete
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
