package main

import (
	"sync"
	"time"

	"fesia"
	"fesia/internal/baselines"
)

// pairRef is a pair's reference answer from the branch-free merge.
type pairRef struct {
	count int
	out   []uint32 // sorted
	hash  uint64
}

// runPairs is the paper's home ground: balanced pairs of 2^18-2^20
// elements, half at 1% and half at 50% selectivity, from a pool larger than
// the last-level cache, alternating IntersectCount and IntersectInto on one
// goroutine through a fesia.Executor.
func runPairs(r *run) error {
	pool := genPairs(r.seed)
	refs := make([]pairRef, len(pool))
	var elems int
	maxOut := 0
	for i, p := range pool {
		out := make([]uint32, min(len(p.a), len(p.b)))
		n := baselines.IntersectScalar(out, p.a, p.b)
		refs[i] = pairRef{count: n, out: out[:n], hash: multisetHash(out[:n])}
		elems += len(p.a) + len(p.b)
		maxOut = max(maxOut, len(out))
	}

	sets, setup, err := repeatSetup(r, "fesia.Build", func() ([][2]*fesia.Set, error) { return buildPool(pool) })
	if err != nil {
		return err
	}
	var mem int
	for _, s := range sets {
		mem += s[0].MemoryBytes() + s[1].MemoryBytes()
	}
	r.note("pool: %d pairs, %d elements, %.1f MiB built", len(pool), elems, float64(mem)/(1<<20))

	// Each caller walks the pool from its own offset; even passes count,
	// odd passes materialize.
	exs := make([]*fesia.Executor, r.nproc)
	dsts := make([][]uint32, r.nproc)
	for c := range exs {
		exs[c] = fesia.NewExecutor()
		dsts[c] = make([]uint32, maxOut)
	}
	var seen sync.Map // pairs whose materialized output was compared in full
	op := func(c, seq, parent int) time.Duration {
		k := seq + c*len(pool)/r.nproc
		i := k % len(pool)
		a, b := sets[i][0], sets[i][1]
		if (k/len(pool))%2 == 0 {
			sp := r.tr.begin("fesia.Executor.IntersectCount", parent)
			t0 := time.Now()
			n := exs[c].IntersectCount(a, b)
			d := time.Since(t0)
			r.tr.end(sp)
			r.check(n == refs[i].count)
			return d
		}
		sp := r.tr.begin("fesia.Executor.IntersectInto", parent)
		t0 := time.Now()
		n := exs[c].IntersectInto(dsts[c], a, b)
		d := time.Since(t0)
		r.tr.end(sp)
		got := dsts[c][:n]
		ok := n == refs[i].count && multisetHash(got) == refs[i].hash
		if _, done := seen.LoadOrStore(i, true); !done {
			ok = ok && equalSorted(got, refs[i].out)
		}
		r.check(ok)
		return d
	}

	if r.tr != nil {
		return pairsTraced(r, pool, sets, op)
	}
	r.set("setup_s", setup)
	r.set("mem_bytes_per_elem", float64(mem)/float64(elems))

	// A class is one pair with one of the two calls.
	lightAndBusy(r, func(c, seq int) time.Duration { return op(c, seq, -1) }, func(seq int) (int, int) {
		i := seq % len(pool)
		return seq % (2 * len(pool)), len(pool[i].a) + len(pool[i].b)
	})
	return nil
}
