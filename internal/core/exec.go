package core

import (
	"context"
	"runtime"
	"sync"
	"time"

	"fesia/internal/bitmap"
	"fesia/internal/kernels"
	"fesia/internal/planner"
	"fesia/internal/stats"
	"fesia/internal/trace"
)

// Visitor consumes one intersection result element. Streaming results through
// a Visitor instead of a destination slice lets callers aggregate, filter, or
// forward matches without materializing them — the result-flow idiom of
// visitor-based set-operation libraries, applied to FESIA's online phase.
//
// Internally every query writes into one nil-able sink pair (dst []uint32,
// emit Visitor): matches go to dst when it is non-nil, through emit when it
// is non-nil, and are only counted when both are nil.
type Visitor func(uint32)

// Executor owns all query-time scratch state for the online intersection
// phase: the k-way pairwise chain buffers, the batch engine's staging
// buffers, and the per-worker state of the parallel paths. The FESIA paper's
// premise is that construction is the one-time offline step and queries are
// the cheap repeated step; an Executor makes the repeated step
// allocation-free — after warm-up, Count, Intersect (into a caller buffer),
// CountK, and the visitor methods perform zero heap allocations.
//
// The zero value is ready to use (buffers grow on demand and are retained
// across calls; parallel methods lazily attach to SharedPool). An Executor
// may be reused for any number of queries over any sets, but must not be used
// from multiple goroutines at once — give each query goroutine its own, or
// recycle them through a sync.Pool as the package-level wrappers do.
type Executor struct {
	scratch // the sequential paths' scratch and instrument context

	ord     []*Set // k-way bitmap-size ordering scratch
	maps    []*bitmap.Bitmap
	workers []scratch // one per parallel worker slot
	pool    *Pool
	sched   []int32 // candidate scheduling order (CountManyParallel)
}

// scratch is one thread's query state: the executor's own for its
// sequential paths, and one per parallel worker slot. Buffers persist across
// queries, so a warm executor stops allocating once every slot has seen its
// largest input.
type scratch struct {
	chain1, chain2 []uint32    // k-way pairwise chain buffers
	staged         []stagedSeg // staged two-pass dispatch records (batch paths)
	probeStage     []probeRec  // staged hash probe: survivor records
	qcache         probeCache  // query hash positions, memoized per bitmap size
	denseAnd       []uint64    // dense×dense word-AND scratch (cross-rep paths)
	touch          uint32      // accumulates read-ahead touches so they are not DCE'd
	count          int         // a parallel worker's result
	in             instr       // the writer's instrument context (instr.go)
}

// NewExecutor returns an Executor attached to the shared worker pool. If a
// process-global stats sink (EnableStats) or planner model (EnablePlanner)
// is installed, the executor attaches to it.
func NewExecutor() *Executor { return NewExecutorWithPool(SharedPool()) }

// NewExecutorWithPool returns an Executor whose parallel methods run on the
// given pool instead of the shared one.
func NewExecutorWithPool(p *Pool) *Executor {
	e := &Executor{pool: p}
	e.attachGlobal()
	return e
}

func (e *Executor) getPool() *Pool {
	if e.pool == nil {
		e.pool = SharedPool()
	}
	return e.pool
}

// growU32 returns a slice of length n, reusing buf's storage when it is large
// enough. The contents are unspecified.
func growU32(buf []uint32, n int) []uint32 {
	if cap(buf) < n {
		return make([]uint32, n)
	}
	return buf[:n]
}

// tail returns dst past its first n elements, keeping a nil sink nil.
func tail(dst []uint32, n int) []uint32 {
	if dst == nil {
		return nil
	}
	return dst[n:]
}

// put records match x into the sink at position n and returns n+1.
func put(dst []uint32, n int, emit Visitor, x uint32) int {
	if dst != nil {
		dst[n] = x
	}
	if emit != nil {
		emit(x)
	}
	return n + 1
}

// putAll records a run of matches into the sink and returns its length.
func putAll(cur, dst []uint32, emit Visitor) int {
	if dst != nil {
		copy(dst, cur)
	}
	if emit != nil {
		for _, v := range cur {
			emit(v)
		}
	}
	return len(cur)
}

func (e *Executor) ensureWorkers(n int) {
	for len(e.workers) < n {
		e.workers = append(e.workers, scratch{in: instrument(instr{}, e.in.sink, e.in.model, nil)})
	}
}

// split runs fn over `workers` contiguous parts of [0, n) on the executor's
// pool, each part on its own worker scratch, and returns the summed results.
// Segments never straddle words, so word-range parts touch disjoint segment
// pairs (Section VI's multicore scheme).
func (e *Executor) split(n, workers int, fn func(ws *scratch, lo, hi int) int) int {
	e.ensureWorkers(workers)
	chunk := (n + workers - 1) / workers
	e.getPool().Do(workers, func(w int) {
		lo := min(w*chunk, n)
		e.workers[w].count = fn(&e.workers[w], lo, min(lo+chunk, n))
	})
	total := 0
	for w := range workers {
		total += e.workers[w].count
	}
	return total
}

// ---------------------------------------------------------------------------
// The two-set operator and its instrumentation seam.
// ---------------------------------------------------------------------------

// strategy selects a seg×seg pair's algorithm: per pair (stratAuto — the
// planner's pick, or the static skew rule without one) or forced.
type strategy uint8

const (
	stratAuto  strategy = iota
	stratMerge          // FESIAmerge: bitmap AND + segment kernels
	stratHash           // FESIAhash: the smaller side probes the larger
)

// armStats maps a strategy arm to its query counter and latency histogram.
var armStats = [...]struct {
	queries stats.Counter
	lat     stats.LatHist
}{
	trace.ArmMerge: {stats.CtrQueriesMerge, stats.LatMerge},
	trace.ArmHash:  {stats.CtrQueriesHash, stats.LatHash},
	trace.ArmKWay:  {stats.CtrQueriesKWay, stats.LatKWay},
	trace.ArmCross: {stats.CtrQueriesCross, stats.LatCross},
	trace.ArmBatch: {stats.CtrQueriesBatch, stats.LatBatch},
}

// begin reads the clock when the query is instrumented (stats, a trace cell
// or a measured planner choice); the zero time, with no clock read,
// otherwise.
func (in *instr) begin(ch planner.Choice) time.Time {
	if in.st != nil || in.tr != nil || ch.Measure() {
		return time.Now()
	}
	return time.Time{}
}

// finish is the one instrumentation seam of a completed query — pair,
// k-way or batch: a single clock read feeds the strategy's stats counter and
// latency, the trace span and the planner feedback alike. v1 and v2 are the
// strategy span's payload (see trace.KindStrategy); a batch's v1 is its
// candidate count. Cancelled queries never reach it — their partial latency
// would skew the model.
func (in *instr) finish(arm uint8, start time.Time, ch planner.Choice, v1, v2 int) {
	if in.st == nil && in.tr == nil && !ch.Measure() {
		return
	}
	el := time.Since(start)
	if in.st != nil {
		in.st.Inc(armStats[arm].queries)
		in.st.Observe(armStats[arm].lat, el)
		if arm == trace.ArmBatch {
			in.st.Add(stats.CtrBatchCandidates, uint64(v1))
		}
	}
	if in.tr != nil {
		in.tr.Span(trace.KindStrategy, arm, 0, start, el, uint64(v1), uint64(v2))
	}
	if ch.Measure() {
		in.plan.Record(ch, el)
	}
}

// pair is the one two-set operator behind every Count, Intersect and Visit
// form, plain or context-aware: it writes a ∩ b into the (dst, emit) sink and
// returns the match count. strat forces a seg×seg strategy or, with
// stratAuto, lets the planner or the static skew rule pick; pairs involving
// a non-segmented set take the cross-representation matrix (hybrid.go). A
// nil ctx is never cancelled; otherwise it is checked once per ctxWordBlock
// bitmap words or ctxProbeBlock probes, and a cancelled query returns
// (0, ctx.Err()) with dst holding unspecified partial data.
func (e *Executor) pair(ctx context.Context, strat strategy, a, b *Set, dst []uint32, emit Visitor) (int, error) {
	compatible(a, b)
	if err := checkpoint(ctx); err != nil {
		return 0, e.noteCancel(err)
	}
	arm := uint8(trace.ArmCross)
	var ch planner.Choice
	if !crossPair(a, b) {
		hash := strat == stratHash
		if strat == stratAuto {
			ch, hash = e.in.planSegSeg(a, b)
		}
		arm = trace.ArmMerge
		if hash {
			arm = trace.ArmHash
		}
	}
	start := e.in.begin(ch)
	var n, v1, v2 int
	var err error
	switch arm {
	case trace.ArmCross:
		n, err = e.crossRun(ctx, a, b, dst, emit)
	case trace.ArmHash:
		small, large := bySize(a, b)
		n, err = e.in.hashProbe(ctx, small.reordered, large, dst, emit)
		v1, v2 = small.n, large.n
	default:
		x, y := ordered(a, b)
		n, v1, err = e.in.mergeRange(ctx, x, y, 0, len(x.bm.Words()), dst, emit)
		v2 = x.bm.NumSegments()
	}
	if err != nil {
		return 0, e.noteCancel(err)
	}
	if e.in.tr != nil && arm != trace.ArmCross {
		e.in.tr.Event(trace.KindKernel, arm, 0, uint64(v1), uint64(v2))
	}
	e.in.finish(arm, start, ch, a.n, b.n)
	return n, nil
}

// bySize orders a pair by element count: the hash strategy's probing side
// first.
func bySize(a, b *Set) (small, large *Set) {
	if a.n > b.n {
		return b, a
	}
	return a, b
}

// ---------------------------------------------------------------------------
// Two-way queries.
// ---------------------------------------------------------------------------

// Count returns |a ∩ b| with the adaptively chosen strategy (FESIAmerge vs
// FESIAhash, Fig. 11 crossover; the live cost model when a planner is
// attached). Zero heap allocations.
func (e *Executor) Count(a, b *Set) int {
	n, _ := e.pair(nil, stratAuto, a, b, nil, nil)
	return n
}

// CountMerge forces the two-step FESIAmerge strategy. Zero heap allocations.
// Cross-representation pairs route to the dispatch matrix (hybrid.go).
func (e *Executor) CountMerge(a, b *Set) int {
	n, _ := e.pair(nil, stratMerge, a, b, nil, nil)
	return n
}

// CountHash forces the per-element FESIAhash strategy. Zero heap allocations.
// Cross-representation pairs route to the dispatch matrix (hybrid.go).
func (e *Executor) CountHash(a, b *Set) int {
	n, _ := e.pair(nil, stratHash, a, b, nil, nil)
	return n
}

// Intersect writes a ∩ b into dst with the adaptive strategy and returns the
// count. dst must have room for min(a.Len(), b.Len()) elements. Results are
// in segment order, not ascending value order (see IntersectMerge). Zero heap
// allocations.
func (e *Executor) Intersect(dst []uint32, a, b *Set) int {
	n, _ := e.pair(nil, stratAuto, a, b, dst, nil)
	return n
}

// Visit streams a ∩ b through emit with the adaptive strategy. Emission order
// matches what Intersect would have written: segment order of the
// larger-bitmap set (merge) or of the smaller set (hash), ascending within
// each segment. Allocation-free once warm (the emit closure itself is the
// caller's).
func (e *Executor) Visit(a, b *Set, emit Visitor) {
	e.pair(nil, stratAuto, a, b, nil, emit)
}

// ---------------------------------------------------------------------------
// k-way intersection (Section VI) on reusable chain buffers.
// ---------------------------------------------------------------------------

// CountK returns |s1 ∩ s2 ∩ ... ∩ sk| (Proposition 2: O(kn/√w + r)); two sets
// take the adaptive pair strategy. Zero heap allocations once the chain
// buffers have grown to the workload's largest segment.
func (e *Executor) CountK(sets ...*Set) int {
	n, _ := e.kSets(nil, sets, nil, nil)
	return n
}

// IntersectK writes the k-way intersection into dst and returns the count.
// dst must be non-nil with room for the smallest set's length. Results are in
// segment order of the largest-bitmap set (two sets take the merge strategy,
// which keeps that order). Zero heap allocations once warm.
func (e *Executor) IntersectK(dst []uint32, sets ...*Set) int {
	if dst == nil {
		panic("core: IntersectK requires a destination buffer")
	}
	n, _ := e.kSets(nil, sets, dst, nil)
	return n
}

// VisitK streams the k-way intersection through emit, in the order
// IntersectK writes.
func (e *Executor) VisitK(emit Visitor, sets ...*Set) {
	e.kSets(nil, sets, nil, emit)
}

// kSets is the one k-set operator behind CountK, IntersectK, VisitK and
// CountKCtx: one set is itself, two sets run the pair operator (adaptive
// when counting, merge order when materializing or visiting), three or more
// run the k-way chain.
func (e *Executor) kSets(ctx context.Context, sets []*Set, dst []uint32, emit Visitor) (int, error) {
	switch len(sets) {
	case 0:
		panic("core: intersection of zero sets")
	case 1:
		if err := checkpoint(ctx); err != nil {
			return 0, err
		}
		if dst != nil {
			return sets[0].materialize(dst), nil
		}
		if emit != nil {
			sets[0].visitAll(emit)
		}
		return sets[0].n, nil
	case 2:
		strat := stratMerge
		if dst == nil && emit == nil {
			strat = stratAuto
		}
		return e.pair(ctx, strat, sets[0], sets[1], dst, emit)
	}
	if err := checkpoint(ctx); err != nil {
		return 0, e.noteCancel(err)
	}
	start := e.in.begin(planner.Choice{})
	var n int
	var err error
	if anyCross(sets) {
		n, err = e.kwayAnyChain(ctx, sets, dst, emit)
	} else {
		x, rest, maxSeg := e.kwayPrepare(sets)
		buf1, buf2 := e.chains(maxSeg)
		n, err = blocks(ctx, len(x.bm.Words()), ctxWordBlock, dst, func(lo, hi int, dst []uint32) int {
			return kwayChainRange(e.maps, x, rest, lo, hi, buf1, buf2, dst, emit)
		})
	}
	if err != nil {
		return 0, e.noteCancel(err)
	}
	e.in.finish(trace.ArmKWay, start, planner.Choice{}, len(sets), n)
	return n, nil
}

// kwayPrepare orders the sets by bitmap size descending — the largest drives
// the word loop and every smaller bitmap wraps (Section III-C generalized to
// k maps) — fills e.maps with the matching bitmaps, and returns the driving
// set, the others, and the chain buffer size the chain needs.
func (e *Executor) kwayPrepare(sets []*Set) (x *Set, rest []*Set, maxSeg int) {
	for _, s := range sets[1:] {
		compatible(sets[0], s)
	}
	e.ord = append(e.ord[:0], sets...)
	ord := e.ord
	for i := 1; i < len(ord); i++ {
		for j := i; j > 0 && ord[j].bm.Bits() > ord[j-1].bm.Bits(); j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	e.maps = e.maps[:0]
	for _, s := range ord {
		e.maps = append(e.maps, &s.bm)
		maxSeg = max(maxSeg, s.maxSeg)
	}
	return ord[0], ord[1:], max(maxSeg, 1)
}

// chains sizes and returns the scratch's two k-way chain buffers.
func (s *scratch) chains(n int) (buf1, buf2 []uint32) {
	s.chain1 = growU32(s.chain1, n)
	s.chain2 = growU32(s.chain2, n)
	return s.chain1, s.chain2
}

// kwayChainRange runs the k-way chain over words [lo, hi) of the largest
// bitmap: every segment surviving the k-way AND has its element lists
// intersected pairwise with the segment kernel, ping-ponging between buf1
// and buf2, and a non-empty final list goes to the (dst, emit) sink. Returns
// the match count.
func kwayChainRange(maps []*bitmap.Bitmap, x *Set, rest []*Set, lo, hi int, buf1, buf2, dst []uint32, emit Visitor) int {
	total := 0
	bitmap.ForEachIntersectingSegmentKRange(maps, lo, hi, func(seg int) {
		cur := x.segment(seg)
		out := buf1
		for _, s := range rest {
			cur = out[:kernels.Intersect(out, cur, s.segment(seg&(s.bm.NumSegments()-1)))]
			if len(cur) == 0 {
				return
			}
			if &out[0] == &buf1[0] {
				out = buf2
			} else {
				out = buf1
			}
		}
		total += putAll(cur, tail(dst, total), emit)
	})
	return total
}

// ---------------------------------------------------------------------------
// Parallel queries on the persistent worker pool (Section VI, multicore).
// ---------------------------------------------------------------------------

// CountMergeParallel is CountMerge with the larger bitmap's words partitioned
// across `workers` parts on the executor's persistent pool. No goroutines are
// spawned; pool workers are reused across calls. Cross-representation pairs
// have no bitmap to partition; they run serially on the dispatch matrix.
func (e *Executor) CountMergeParallel(a, b *Set, workers int) int {
	compatible(a, b)
	if crossPair(a, b) {
		return e.CountMerge(a, b)
	}
	x, y := ordered(a, b)
	words := len(x.bm.Words())
	workers = min(workers, words)
	if workers <= 1 {
		return e.CountMerge(a, b)
	}
	start := e.in.begin(planner.Choice{})
	n := e.split(words, workers, func(ws *scratch, lo, hi int) int {
		n, _, _ := ws.in.mergeRange(nil, x, y, lo, hi, nil, nil)
		return n
	})
	e.in.finish(trace.ArmMerge, start, planner.Choice{}, a.n, b.n)
	return n
}

// CountKParallel is CountK with the largest bitmap's words partitioned across
// `workers` pool parts, each chaining the pairwise segment intersections in
// its persistent private buffers.
func (e *Executor) CountKParallel(workers int, sets ...*Set) int {
	switch {
	case len(sets) == 2:
		return e.CountMergeParallel(sets[0], sets[1], workers)
	case len(sets) < 2 || anyCross(sets):
		// Mixed representations have no shared bitmap to partition; the
		// serial membership-compaction chain handles them.
		return e.CountK(sets...)
	}
	x, rest, maxSeg := e.kwayPrepare(sets)
	words := len(x.bm.Words())
	workers = min(workers, words)
	if workers <= 1 {
		return e.CountK(sets...)
	}
	start := e.in.begin(planner.Choice{})
	n := e.split(words, workers, func(ws *scratch, lo, hi int) int {
		buf1, buf2 := ws.chains(maxSeg)
		return kwayChainRange(e.maps, x, rest, lo, hi, buf1, buf2, nil, nil)
	})
	e.in.finish(trace.ArmKWay, start, planner.Choice{}, len(sets), n)
	return n
}

// ---------------------------------------------------------------------------
// Pooled default executors backing the package-level compatibility wrappers.
// ---------------------------------------------------------------------------

// defaultExecutors recycles the executors behind the package-level wrappers
// (core's and the root package's alike). When the GC drops one, its
// finalizer releases its stats shards and planner handles for the next
// executor to reuse, so pool churn never grows the sink or the model.
var defaultExecutors = sync.Pool{New: func() any {
	e := NewExecutor()
	runtime.SetFinalizer(e, (*Executor).release)
	return e
}}

// pooled runs fn on a pooled default executor, attached on checkout to the
// process-global stats sink and planner like any other. It is not generic:
// a generic instantiation called from another package makes the caller's
// closure escape, an allocation per call.
func pooled(fn func(e *Executor) int) int {
	e := defaultExecutors.Get().(*Executor)
	defer defaultExecutors.Put(e)
	e.attachGlobal()
	return fn(e)
}
