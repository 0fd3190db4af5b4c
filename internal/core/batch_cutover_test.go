package core

import (
	"context"
	"math/rand"
	"testing"

	"fesia/internal/stats"
)

// TestCountManyParallelCutover checks the work-size cutover of both
// CountManyParallel and CountManyParallelCtx: a small batch must run
// serially (no pool hand-off), a large batch must reach the pool. Routing is
// observed through the pool's Do counter, and results must match the serial
// path either way.
func TestCountManyParallelCutover(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cfg := DefaultConfig()
	q := MustNewSet(randSet(rng, 1000, 1<<20), cfg)

	small := make([]*Set, 16)
	for i := range small {
		small[i] = MustNewSet(randSet(rng, 2000, 1<<20), cfg)
	}
	// 16 hash-regime candidates: work ~ 16 * 1000 probes, far below the
	// cutover.
	large := make([]*Set, 0, 300)
	for i := 0; i < 300; i++ {
		large = append(large, MustNewSet(randSet(rng, 4000, 1<<20), cfg))
	}
	// 300 merge/hash candidates * (1000+4000) elements ~ 1.5M units, above it.

	k := stats.New()
	EnableStats(k)
	defer EnableStats(nil)
	e := NewExecutor()

	forms := []struct {
		name string
		run  func(cands []*Set, out []int)
	}{
		{"CountManyParallel", func(cands []*Set, out []int) { e.CountManyParallel(q, cands, out, 4) }},
		{"CountManyParallelCtx", func(cands []*Set, out []int) {
			if err := e.CountManyParallelCtx(context.Background(), q, cands, out, 4); err != nil {
				t.Fatal(err)
			}
		}},
	}
	poolDo := func() uint64 {
		snap := k.Snapshot()
		return snap.Counter(stats.CtrPoolDo)
	}
	for _, f := range forms {
		check := func(cands []*Set) {
			out := make([]int, len(cands))
			want := make([]int, len(cands))
			e.CountMany(q, cands, want)
			f.run(cands, out)
			for i := range out {
				if out[i] != want[i] {
					t.Fatalf("%s candidate %d: parallel=%d serial=%d", f.name, i, out[i], want[i])
				}
			}
		}
		base := poolDo()
		check(small)
		if got := poolDo(); got != base {
			t.Errorf("%s: small batch took the pool (Do %d -> %d), want serial cutover", f.name, base, got)
		}
		base = poolDo()
		check(large)
		if got := poolDo(); got == base {
			t.Errorf("%s: large batch never reached the pool; cutover threshold too high", f.name)
		}
	}
}
