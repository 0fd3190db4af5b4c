package core

import (
	"context"
	"math/bits"
	"time"

	"fesia/internal/kernels"
	"fesia/internal/planner"
	"fesia/internal/simd"
	"fesia/internal/stats"
)

// Cross-representation dispatch matrix. With three physical representations
// (segmented bitmap, sorted array, dense bitmap) there are six unordered
// pairs; seg×seg keeps the classic FESIAmerge/FESIAhash strategies and their
// SIMD paths, and every other pair routes here. The matrix picks the cheaper
// side to drive each pair:
//
//	array×array  the segment kernel: the branch-free all-pairs loop when
//	             both sides fit kernels.SmallMax, the merge otherwise
//	array×seg    the array's elements probe the segmented set through the
//	             existing branch-free hash probe (O(n_array))
//	array×dense  the smaller side probes the other (bit test one way, binary
//	             search the other)
//	seg×dense    the smaller side probes the other (hash probe one way, bit
//	             test the other)
//	dense×dense  word-AND over the overlapping span via simd.AndWords, then
//	             popcount (count) or bit decode (materialize/visit)
//
// Every pair writes into the operator's (dst, emit) sink and takes the same
// context checkpoints as the seg×seg strategies, so the plain, ctx and batch
// forms all run this one matrix. All paths are allocation-free once the
// executor's dense-AND scratch has grown to one word block (the same
// warm-executor contract as the segmented paths). Result order is ascending
// for array- and dense-driven pairs and segment order when a segmented set's
// reordered array drives the loop; as with the classic strategies, callers
// needing value order sort.

// crossPair reports whether an intersection of a and b takes the
// cross-representation dispatch matrix instead of the seg×seg strategies.
func crossPair(a, b *Set) bool {
	return a.rep != RepSegmented || b.rep != RepSegmented
}

// anyCross reports whether any set of a k-way query is non-segmented.
func anyCross(sets []*Set) bool {
	for _, s := range sets {
		if s.rep != RepSegmented {
			return true
		}
	}
	return false
}

// repPairCounter maps an unordered representation pair to its dispatch
// counter.
func repPairCounter(a, b Rep) stats.Counter {
	if a > b {
		a, b = b, a
	}
	switch a {
	case RepSegmented:
		switch b {
		case RepSegmented:
			return stats.CtrDispSegSeg
		case RepArray:
			return stats.CtrDispSegArray
		default:
			return stats.CtrDispSegDense
		}
	case RepArray:
		if b == RepArray {
			return stats.CtrDispArrayArray
		}
		return stats.CtrDispArrayDense
	}
	return stats.CtrDispDenseDense
}

// growU64 returns a slice of length n, reusing buf's storage when large
// enough. The contents are unspecified.
func growU64(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// crossRun dispatches one pair intersection where at least one side is
// non-segmented, into the (dst, emit) sink, on the scratch's persistent
// dense-AND buffer; the match count is returned. The writer's stats shard,
// when attached, receives the dispatch-pair counter and, on hash-probing
// paths, the probe/survivor counters; its planner handle, when attached,
// resolves the probe-side decisions of the ×dense pairs (the other pairs
// have a single reasonable driver and stay static). ctx is checked per probe
// or word block; array×array, a single merge of two arrays, runs unchecked.
func (s *scratch) crossRun(ctx context.Context, a, b *Set, dst []uint32, emit Visitor) (int, error) {
	if s.in.st != nil {
		s.in.st.Inc(repPairCounter(a.rep, b.rep))
	}
	if a.rep > b.rep {
		a, b = b, a
	}
	switch {
	case a.n == 0 || b.n == 0:
		return 0, nil
	case a.rep == RepSegmented && b.rep == RepArray:
		return s.in.hashProbe(ctx, b.reordered, a, dst, emit)
	case b.rep == RepArray: // array×array
		xa, xb := a.reordered, b.reordered
		switch {
		case dst != nil:
			return kernels.Intersect(dst, xa, xb), nil
		case emit != nil:
			return kernels.Visit(xa, xb, emit), nil
		}
		return kernels.Count(xa, xb), nil
	case a.rep == RepDense: // dense×dense
		return denseDenseRun(ctx, &s.denseAnd, a, b, dst, emit)
	}
	return s.in.denseMixedRun(ctx, a, b, dst, emit)
}

// denseMixedRun intersects a segmented or array set s with a dense bitmap:
// either the dense bits probe s (hash probe into segmented, binary search
// into arrays), or s's reordered elements bit-test the dense span. The
// probing side comes from the planner when a handle is attached
// (DecSegDense arm 0 and DecArrayDense arm 1 are the dense-driven sides),
// from the smaller-side rule otherwise.
func (in *instr) denseMixedRun(ctx context.Context, s, den *Set, dst []uint32, emit Visitor) (int, error) {
	fromDense := den.n < s.n
	var ch planner.Choice
	if h := in.plan; h != nil {
		if s.rep == RepSegmented {
			ch = h.Decide(planner.DecSegDense, den.n, s.n)
			in.notePlan(planner.DecSegDense, ch, (ch.Arm == 0) != fromDense)
			fromDense = ch.Arm == 0
		} else {
			ch = h.Decide(planner.DecArrayDense, s.n, den.n)
			in.notePlan(planner.DecArrayDense, ch, (ch.Arm == 1) != fromDense)
			fromDense = ch.Arm == 1
		}
	}
	start := planStart(ch)
	var n int
	var err error
	if fromDense {
		n, err = blocks(ctx, len(den.dense), ctxWordBlock, dst, func(lo, hi int, dst []uint32) int {
			k := 0
			for wi := lo; wi < hi; wi++ {
				for w := den.dense[wi]; w != 0; w &= w - 1 {
					if x := den.base + uint32(wi)<<6 + uint32(simd.Tzcnt64(w)); s.Contains(x) {
						k = put(dst, k, emit, x)
					}
				}
			}
			return k
		})
		if in.st != nil && s.rep == RepSegmented && err == nil {
			in.st.Add(stats.CtrHashProbes, uint64(den.n))
		}
	} else {
		elems := s.reordered
		n, err = blocks(ctx, len(elems), ctxProbeBlock, dst, func(lo, hi int, dst []uint32) int {
			k := 0
			for _, x := range elems[lo:hi] {
				if den.Contains(x) {
					k = put(dst, k, emit, x)
				}
			}
			return k
		})
	}
	if err == nil {
		// Cancelled passes are partial work; only completed ones feed the
		// cost model.
		in.planRecord(ch, start)
	}
	return n, err
}

// denseDenseRun intersects two dense bitmaps: the overlapping word window
// (bases are 64-aligned, so overlap is word-aligned with no shifting) is
// ANDed via simd.AndWords into the caller's scratch one ctxWordBlock at a
// time, then popcounted or decoded. Results are ascending.
func denseDenseRun(ctx context.Context, denseAnd *[]uint64, a, b *Set, dst []uint32, emit Visitor) (int, error) {
	base, wa, wb, nw := denseOverlap(a, b)
	if nw <= 0 {
		return 0, nil
	}
	buf := growU64(*denseAnd, min(nw, ctxWordBlock))
	*denseAnd = buf
	return blocks(ctx, nw, ctxWordBlock, dst, func(lo, hi int, dst []uint32) int {
		and := buf[:hi-lo]
		if simd.AndWords(and, a.dense[wa+lo:wa+hi], b.dense[wb+lo:wb+hi]) == 0 {
			return 0
		}
		k := 0
		if dst == nil && emit == nil {
			for _, w := range and {
				k += bits.OnesCount64(w)
			}
			return k
		}
		for wi, w := range and {
			for ; w != 0; w &= w - 1 {
				k = put(dst, k, emit, base+uint32(lo+wi)<<6+uint32(simd.Tzcnt64(w)))
			}
		}
		return k
	})
}

// denseOverlap computes the word-aligned overlap window of two dense sets:
// the window's base value, each side's starting word offset, and the word
// count (<= 0 when the spans are disjoint).
func denseOverlap(a, b *Set) (lo uint32, wa, wb, nw int) {
	loA, loB := uint64(a.base), uint64(b.base)
	hiA := loA + uint64(len(a.dense))*64
	hiB := loB + uint64(len(b.dense))*64
	l := max(loA, loB)
	h := min(hiA, hiB)
	if h <= l {
		return 0, 0, 0, 0
	}
	return uint32(l), int((l - loA) >> 6), int((l - loB) >> 6), int((h - l) >> 6)
}

// ---------------------------------------------------------------------------
// k-way over mixed representations.
// ---------------------------------------------------------------------------

// materialize writes the set's elements into dst (which must hold s.Len())
// and returns the count: ascending for array and dense sets, segment order
// for segmented sets (matching IntersectK's k==1 contract).
func (s *Set) materialize(dst []uint32) int {
	if s.rep != RepDense {
		return copy(dst, s.reordered)
	}
	n := 0
	for wi, w := range s.dense {
		for w != 0 {
			dst[n] = s.base + uint32(wi)<<6 + uint32(simd.Tzcnt64(w))
			n++
			w &= w - 1
		}
	}
	return n
}

// visitAll streams every element of the set through emit, in materialize
// order.
func (s *Set) visitAll(emit Visitor) {
	if s.rep != RepDense {
		for _, v := range s.reordered {
			emit(v)
		}
		return
	}
	for wi, w := range s.dense {
		for w != 0 {
			emit(s.base + uint32(wi)<<6 + uint32(simd.Tzcnt64(w)))
			w &= w - 1
		}
	}
}

// kwaySeed picks the set a mixed-representation k-way chain materializes
// first. With a planner handle the pick minimizes the modelled chain cost —
// n_seed × Σ fitted per-probe cost of every other set's representation — so
// a slightly larger seed wins when it avoids expensive probe targets; the
// equal cold-start priors reduce this to the static smallest-set rule
// (first-minimum tie break included).
func (e *Executor) kwaySeed(sets []*Set) int {
	if h := e.in.plan; h != nil {
		var total float64
		for _, s := range sets {
			total += h.ProbeCost(int(s.rep))
		}
		best, bestEst := 0, 0.0
		for i, s := range sets {
			est := float64(s.n) * (total - h.ProbeCost(int(s.rep)))
			if i == 0 || est < bestEst {
				best, bestEst = i, est
			}
		}
		return best
	}
	sm := 0
	for i, s := range sets {
		if s.n < sets[sm].n {
			sm = i
		}
	}
	return sm
}

// kwayAnyChain is the k-way core for mixed-representation inputs: the seed
// set (kwaySeed; smallest by default) is materialized into the executor's
// chain buffer and then compacted in place against every other set's
// membership test, with a context check before each pass. O(n_seed · k) with
// O(1) or O(log n) probes — the k-way counterpart of the pair matrix's
// probe-smaller-side rule. The final chained list goes to the (dst, emit)
// sink. With a learned planner attached, sampled queries time each
// compaction pass to keep the per-representation probe costs fresh.
func (e *Executor) kwayAnyChain(ctx context.Context, sets []*Set, dst []uint32, emit Visitor) (int, error) {
	for _, s := range sets[1:] {
		compatible(sets[0], s)
	}
	sm := e.kwaySeed(sets)
	cur, _ := e.chains(max(sets[sm].n, 1))
	cur = cur[:sets[sm].materialize(cur)]
	ksample := e.in.plan != nil && e.in.plan.SampleKWay()
	for i, s := range sets {
		if i == sm || len(cur) == 0 {
			continue
		}
		if err := checkpoint(ctx); err != nil {
			return 0, err
		}
		var t0 time.Time
		if ksample {
			t0 = time.Now()
		}
		k := 0
		for _, v := range cur {
			if s.Contains(v) {
				cur[k] = v
				k++
			}
		}
		if ksample {
			e.in.plan.RecordProbe(int(s.rep), time.Since(t0), len(cur))
		}
		cur = cur[:k]
	}
	return putAll(cur, dst, emit), nil
}
