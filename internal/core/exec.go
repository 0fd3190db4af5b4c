package core

import (
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
type Visitor func(uint32)

// Executor owns all query-time scratch state for the online intersection
// phase: the k-way pairwise chain buffers, the segment staging buffer for
// visitor dispatch, and the per-worker state of the parallel paths. The FESIA
// paper's premise is that construction is the one-time offline step and
// queries are the cheap repeated step; an Executor makes the repeated step
// allocation-free — after warm-up, Count, Intersect (into a caller buffer),
// CountK, and the visitor methods perform zero heap allocations.
//
// The zero value is ready to use (buffers grow on demand and are retained
// across calls; parallel methods lazily attach to SharedPool). An Executor
// may be reused for any number of queries over any sets, but must not be used
// from multiple goroutines at once — give each query goroutine its own, or
// recycle them through a sync.Pool as the package-level wrappers do.
type Executor struct {
	chain1  []uint32 // k-way pairwise chain buffer A
	chain2  []uint32 // k-way pairwise chain buffer B
	ord     []*Set   // k-way bitmap-size ordering scratch
	maps    []*bitmap.Bitmap
	workers []execWorker
	pool    *Pool

	staged     []stagedSeg // staged two-pass dispatch records (batch paths)
	sched      []int32     // candidate scheduling order (CountManyParallel)
	probeStage []probeRec  // staged hash probe: survivor records
	qcache     probeCache  // query hash positions, memoized per bitmap size
	denseAnd   []uint64    // dense×dense word-AND scratch (cross-rep paths)
	touchSink  uint32      // accumulates read-ahead touches so they are not DCE'd

	// Observability (nil when stats are disabled — the default). st is this
	// executor's single-writer shard for its sequential paths; each parallel
	// worker slot carries its own shard. qseq numbers the merge queries for
	// kernel-histogram sampling (kernelSampled). See stats.go for the
	// ownership model.
	st   *stats.Shard
	sink *stats.Sink
	qseq uint64

	// Adaptive planner (nil when off — the default). plan is this executor's
	// single-writer decision handle for its sequential paths; each parallel
	// worker slot carries its own. See plan.go for the ownership model.
	plan      *planner.Handle
	planModel *planner.Model

	// Per-query tracing (nil when no tracer is installed — the default).
	// tr is this executor's (shard × slot) staging cell in the serving
	// tier's tracer; the sequential ctx paths append strategy, planner and
	// kernel records to it. See trace.go for the ownership model.
	tr *trace.Cell
}

// execWorker is one worker's private state inside an Executor's parallel
// methods. Buffers persist across queries so a warm executor's parallel paths
// stop allocating once every worker has seen its largest range.
type execWorker struct {
	count      int
	buf        []uint32 // materialization buffer (IntersectMergeParallel)
	chain1     []uint32 // k-way chain scratch
	chain2     []uint32
	staged     []stagedSeg // per-worker staged dispatch records (CountManyParallel)
	probeStage []probeRec  // per-worker staged probe buffer
	qcache     probeCache  // per-worker query position cache
	denseAnd   []uint64    // per-worker dense×dense AND scratch (cross-rep)
	touch      uint32      // per-worker read-ahead sink
	st         *stats.Shard
	plan       *planner.Handle
}

// NewExecutor returns an Executor attached to the shared worker pool. If a
// process-global stats sink is installed (EnableStats), the executor attaches
// to it.
func NewExecutor() *Executor {
	e := &Executor{pool: SharedPool()}
	e.maybeAttachStats()
	e.maybeAttachPlanner()
	return e
}

// NewExecutorWithPool returns an Executor whose parallel methods run on the
// given pool instead of the shared one.
func NewExecutorWithPool(p *Pool) *Executor {
	e := &Executor{pool: p}
	e.maybeAttachStats()
	e.maybeAttachPlanner()
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

func (e *Executor) ensureWorkers(n int) {
	for len(e.workers) < n {
		w := execWorker{}
		if e.sink != nil {
			w.st = e.sink.NewShard()
		}
		if e.planModel != nil {
			w.plan = e.planModel.NewHandle()
		}
		e.workers = append(e.workers, w)
	}
}

// ---------------------------------------------------------------------------
// Two-way queries. The sequential two-way paths need no scratch at all; they
// share the free functions' hot loops, adding only the executor's stats
// recording (skipped entirely on the nil fast path when stats are disabled).
// ---------------------------------------------------------------------------

// Count returns |a ∩ b| with the adaptively chosen strategy (FESIAmerge vs
// FESIAhash, Fig. 11 crossover; the live cost model when a planner is
// attached). Zero heap allocations.
func (e *Executor) Count(a, b *Set) int {
	if crossPair(a, b) {
		return e.crossCount(a, b)
	}
	ch, hash := planSegSeg(e.plan, e.st, a, b)
	start := planStart(ch)
	var n int
	if hash {
		n = e.CountHash(a, b)
	} else {
		n = e.CountMerge(a, b)
	}
	planRecord(e.plan, ch, start)
	return n
}

// CountMerge forces the two-step FESIAmerge strategy. Zero heap allocations.
// Cross-representation pairs route to the dispatch matrix (hybrid.go).
func (e *Executor) CountMerge(a, b *Set) int {
	if crossPair(a, b) {
		return e.crossCount(a, b)
	}
	if e.st == nil {
		return CountMerge(a, b)
	}
	start := time.Now()
	compatible(a, b)
	x, y := ordered(a, b)
	n := countMergeRange(x, y, 0, len(x.bm.Words()), e.st, e.kernelShard())
	observeSince(e.st, stats.CtrQueriesMerge, stats.LatMerge, start)
	return n
}

// CountHash forces the per-element FESIAhash strategy. Zero heap allocations.
// Cross-representation pairs route to the dispatch matrix (hybrid.go).
func (e *Executor) CountHash(a, b *Set) int {
	if crossPair(a, b) {
		return e.crossCount(a, b)
	}
	if e.st == nil {
		return CountHash(a, b)
	}
	start := time.Now()
	compatible(a, b)
	small, large := a, b
	if small.n > large.n {
		small, large = large, small
	}
	n := hashProbeRange(small, large, 0, small.n, nil, e.st)
	observeSince(e.st, stats.CtrQueriesHash, stats.LatHash, start)
	return n
}

// Intersect writes a ∩ b into dst with the adaptive strategy and returns the
// count. dst must have room for min(a.Len(), b.Len()) elements. Results are
// in segment order, not ascending value order (see IntersectMerge). Zero heap
// allocations.
func (e *Executor) Intersect(dst []uint32, a, b *Set) int {
	if crossPair(a, b) {
		return e.crossIntersect(dst, a, b)
	}
	ch, hash := planSegSeg(e.plan, e.st, a, b)
	if e.st == nil && !ch.Measure() {
		if hash {
			return IntersectHash(dst, a, b)
		}
		return IntersectMerge(dst, a, b)
	}
	start := time.Now()
	var n int
	if hash {
		n = IntersectHash(dst, a, b)
		if e.st != nil {
			observeSince(e.st, stats.CtrQueriesHash, stats.LatHash, start)
		}
	} else {
		n = IntersectMerge(dst, a, b)
		if e.st != nil {
			observeSince(e.st, stats.CtrQueriesMerge, stats.LatMerge, start)
		}
	}
	planRecord(e.plan, ch, start)
	return n
}

// ---------------------------------------------------------------------------
// Streaming visitors: results flow through emit as they are produced.
// ---------------------------------------------------------------------------

// Visit streams a ∩ b through emit with the adaptive strategy. Emission order
// matches what Intersect would have written: segment order of the
// larger-bitmap set (merge) or of the smaller set (hash), ascending within
// each segment. Allocation-free once warm (the emit closure itself is the
// caller's).
func (e *Executor) Visit(a, b *Set, emit Visitor) {
	if crossPair(a, b) {
		e.crossVisit(a, b, emit)
		return
	}
	ch, hash := planSegSeg(e.plan, e.st, a, b)
	start := planStart(ch)
	if hash {
		e.VisitHash(a, b, emit)
	} else {
		e.VisitMerge(a, b, emit)
	}
	planRecord(e.plan, ch, start)
}

// VisitMerge streams the two-step FESIAmerge intersection through emit: each
// surviving segment pair's matches stream from the segment kernel straight
// into emit, so no per-query result slice exists.
// Cross-representation pairs route to the dispatch matrix (hybrid.go).
func (e *Executor) VisitMerge(a, b *Set, emit Visitor) {
	if crossPair(a, b) {
		e.crossVisit(a, b, emit)
		return
	}
	compatible(a, b)
	x, y := ordered(a, b)
	st := e.st
	kst := e.kernelShard()
	var start time.Time
	if st != nil {
		start = time.Now()
	}
	pairs := 0
	forEachSegPair(x, y, func(sx, sy int) {
		pairs++
		if kst != nil {
			kst.Kernel(int(x.sizes[sx]), int(y.sizes[sy]))
		}
		kernels.Visit(x.segment(sx), y.segment(sy), emit)
	})
	if st != nil {
		st.Add(stats.CtrSegPairs, uint64(pairs))
		st.Add(stats.CtrSegmentsScanned, uint64(x.bm.NumSegments()))
		observeSince(st, stats.CtrQueriesMerge, stats.LatMerge, start)
	}
}

// VisitHash streams the skewed-input FESIAhash intersection through emit, in
// the smaller set's segment order. Cross-representation pairs route to the
// dispatch matrix (hybrid.go).
func (e *Executor) VisitHash(a, b *Set, emit Visitor) {
	if crossPair(a, b) {
		e.crossVisit(a, b, emit)
		return
	}
	compatible(a, b)
	small, large := a, b
	if small.n > large.n {
		small, large = large, small
	}
	if e.st == nil {
		hashProbeRange(small, large, 0, small.n, emit, nil)
		return
	}
	start := time.Now()
	hashProbeRange(small, large, 0, small.n, emit, e.st)
	observeSince(e.st, stats.CtrQueriesHash, stats.LatHash, start)
}

// VisitK streams the k-way intersection through emit, in the largest-bitmap
// set's segment order (the order IntersectK writes).
func (e *Executor) VisitK(emit Visitor, sets ...*Set) {
	switch len(sets) {
	case 0:
		panic("core: intersection of zero sets")
	case 1:
		sets[0].visitAll(emit)
		return
	case 2:
		e.VisitMerge(sets[0], sets[1], emit)
		return
	}
	var start time.Time
	if e.st != nil {
		start = time.Now()
	}
	sink := func(cur []uint32) {
		for _, v := range cur {
			emit(v)
		}
	}
	if anyCross(sets) {
		e.kwayAnyChain(sets, sink)
	} else {
		e.kwayChain(sets, sink)
	}
	if e.st != nil {
		observeSince(e.st, stats.CtrQueriesKWay, stats.LatKWay, start)
	}
}

// ---------------------------------------------------------------------------
// k-way intersection (Section VI) on reusable chain buffers.
// ---------------------------------------------------------------------------

// CountK returns |s1 ∩ s2 ∩ ... ∩ sk| (Proposition 2: O(kn/√w + r)). Zero
// heap allocations once the chain buffers have grown to the workload's
// largest segment.
func (e *Executor) CountK(sets ...*Set) int {
	switch len(sets) {
	case 0:
		panic("core: intersection of zero sets")
	case 1:
		return sets[0].n
	case 2:
		return e.CountMerge(sets[0], sets[1])
	}
	var start time.Time
	if e.st != nil {
		start = time.Now()
	}
	total := 0
	sink := func(cur []uint32) { total += len(cur) }
	if anyCross(sets) {
		e.kwayAnyChain(sets, sink)
	} else {
		e.kwayChain(sets, sink)
	}
	if e.st != nil {
		observeSince(e.st, stats.CtrQueriesKWay, stats.LatKWay, start)
	}
	return total
}

// IntersectK writes the k-way intersection into dst and returns the count.
// dst must be non-nil with room for the smallest set's length. Results are in
// segment order of the largest-bitmap set. Zero heap allocations once warm.
func (e *Executor) IntersectK(dst []uint32, sets ...*Set) int {
	if dst == nil {
		panic("core: IntersectK requires a destination buffer")
	}
	switch len(sets) {
	case 0:
		panic("core: intersection of zero sets")
	case 1:
		return sets[0].materialize(dst)
	case 2:
		return IntersectMerge(dst, sets[0], sets[1])
	}
	var start time.Time
	if e.st != nil {
		start = time.Now()
	}
	total := 0
	sink := func(cur []uint32) {
		copy(dst[total:], cur)
		total += len(cur)
	}
	if anyCross(sets) {
		e.kwayAnyChain(sets, sink)
	} else {
		e.kwayChain(sets, sink)
	}
	if e.st != nil {
		observeSince(e.st, stats.CtrQueriesKWay, stats.LatKWay, start)
	}
	return total
}

// orderByBitmap fills e.ord with sets sorted by bitmap size descending — the
// largest drives the word loop and every smaller bitmap wraps (Section III-C
// generalized to k maps) — and e.maps with the matching bitmaps.
func (e *Executor) orderByBitmap(sets []*Set) {
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
		e.maps = append(e.maps, s.bm)
	}
}

// kwayChain runs the k-way bitmap AND and, for every surviving segment whose
// pairwise kernel chain stays non-empty, hands the final chained list to
// sink. It is the shared core of CountK, IntersectK and VisitK (k >= 3).
func (e *Executor) kwayChain(sets []*Set, sink func(cur []uint32)) {
	x, rest := e.kwayPrepare(sets)
	e.kwayChainRange(x, rest, 0, len(x.bm.Words()), sink)
}

// kwayPrepare orders the sets, fills e.maps, and sizes the chain buffers —
// the shared setup of kwayChain and the context-aware CountKCtx.
func (e *Executor) kwayPrepare(sets []*Set) (x *Set, rest []*Set) {
	e.orderByBitmap(sets)
	x = e.ord[0]
	rest = e.ord[1:]
	maxSeg := x.maxSeg
	for _, s := range rest {
		maxSeg = max(maxSeg, s.maxSeg)
	}
	e.chain1 = growU32(e.chain1, max(maxSeg, 1))
	e.chain2 = growU32(e.chain2, max(maxSeg, 1))
	return x, rest
}

// kwayChainRange runs the k-way chain over words [wordLo, wordHi) of the
// largest bitmap, on buffers sized by kwayPrepare.
func (e *Executor) kwayChainRange(x *Set, rest []*Set, wordLo, wordHi int, sink func(cur []uint32)) {
	buf1, buf2 := e.chain1, e.chain2
	bitmap.ForEachIntersectingSegmentKRange(e.maps, wordLo, wordHi, func(seg int) {
		cur := x.segment(seg)
		n := len(cur)
		out := buf1
		for _, s := range rest {
			sseg := s.segment(seg & (s.bm.NumSegments() - 1))
			n = kernels.Intersect(out, cur, sseg)
			if n == 0 {
				break
			}
			cur = out[:n]
			if &out[0] == &buf1[0] {
				out = buf2
			} else {
				out = buf1
			}
		}
		if n == 0 {
			return
		}
		sink(cur[:n])
	})
}

// ---------------------------------------------------------------------------
// Parallel queries on the persistent worker pool (Section VI, multicore).
// ---------------------------------------------------------------------------

// CountMergeParallel is CountMerge with the larger bitmap's words partitioned
// across `workers` parts on the executor's persistent pool. No goroutines are
// spawned; pool workers are reused across calls. Cross-representation pairs
// have no bitmap to partition; they run serially on the dispatch matrix.
func (e *Executor) CountMergeParallel(a, b *Set, workers int) int {
	if crossPair(a, b) {
		return e.crossCount(a, b)
	}
	compatible(a, b)
	x, y := ordered(a, b)
	words := len(x.bm.Words())
	if workers < 1 {
		workers = 1
	}
	if workers > words {
		workers = words
	}
	if workers == 1 {
		return e.CountMerge(a, b)
	}
	var start time.Time
	if e.st != nil {
		start = time.Now()
	}
	sampled := e.kernelSampled()
	e.ensureWorkers(workers)
	chunk := (words + workers - 1) / workers
	e.getPool().Do(workers, func(w int) {
		lo := w * chunk
		hi := min(lo+chunk, words)
		ws := &e.workers[w]
		kst := ws.st
		if !sampled {
			kst = nil
		}
		ws.count = countMergeRange(x, y, lo, hi, ws.st, kst)
	})
	total := 0
	for w := 0; w < workers; w++ {
		total += e.workers[w].count
	}
	if e.st != nil {
		observeSince(e.st, stats.CtrQueriesMerge, stats.LatMerge, start)
	}
	return total
}

// IntersectMergeParallel is IntersectMerge across `workers` pool parts.
// Workers materialize disjoint word ranges into their persistent buffers,
// which are concatenated in range order, so the output matches
// IntersectMerge. Each worker pre-sizes its buffer from the per-range segment
// size totals (a cheap bitmap pre-pass) instead of growing it by repeated
// appends. Cross-representation pairs run serially on the dispatch matrix.
func (e *Executor) IntersectMergeParallel(dst []uint32, a, b *Set, workers int) int {
	if crossPair(a, b) {
		return e.crossIntersect(dst, a, b)
	}
	compatible(a, b)
	x, y := ordered(a, b)
	words := len(x.bm.Words())
	if workers < 1 {
		workers = 1
	}
	if workers > words {
		workers = words
	}
	if workers == 1 {
		if e.st == nil {
			return IntersectMerge(dst, a, b)
		}
		start := time.Now()
		n := IntersectMerge(dst, a, b)
		observeSince(e.st, stats.CtrQueriesMerge, stats.LatMerge, start)
		return n
	}
	var start time.Time
	if e.st != nil {
		start = time.Now()
	}
	e.ensureWorkers(workers)
	chunk := (words + workers - 1) / workers
	e.getPool().Do(workers, func(w int) {
		ws := &e.workers[w]
		lo := w * chunk
		hi := min(lo+chunk, words)
		// Pre-size from per-range segment totals: the sum of
		// min(|segA|, |segB|) over the range's surviving pairs bounds the
		// range's output exactly, and reading two size arrays is far cheaper
		// than the kernel pass that follows.
		bound := 0
		forEachSegPairRange(x, y, lo, hi, func(sx, sy int) {
			bound += int(min(x.sizes[sx], y.sizes[sy]))
		})
		ws.buf = growU32(ws.buf, bound)
		n := 0
		forEachSegPairRange(x, y, lo, hi, func(sx, sy int) {
			n += kernels.Intersect(ws.buf[n:], x.segment(sx), y.segment(sy))
		})
		ws.count = n
	})
	total := 0
	for w := 0; w < workers; w++ {
		ws := &e.workers[w]
		total += copy(dst[total:], ws.buf[:ws.count])
	}
	if e.st != nil {
		observeSince(e.st, stats.CtrQueriesMerge, stats.LatMerge, start)
	}
	return total
}

// CountHashParallel applies the skewed-input strategy with the smaller set's
// elements partitioned across `workers` pool parts. Cross-representation
// pairs run serially on the dispatch matrix.
func (e *Executor) CountHashParallel(a, b *Set, workers int) int {
	if crossPair(a, b) {
		return e.crossCount(a, b)
	}
	compatible(a, b)
	small, large := a, b
	if small.n > large.n {
		small, large = large, small
	}
	if workers < 1 {
		workers = 1
	}
	if workers > small.n {
		workers = small.n
	}
	if workers <= 1 {
		return e.CountHash(a, b)
	}
	var start time.Time
	if e.st != nil {
		start = time.Now()
	}
	e.ensureWorkers(workers)
	chunk := (small.n + workers - 1) / workers
	e.getPool().Do(workers, func(w int) {
		lo := w * chunk
		hi := min(lo+chunk, small.n)
		e.workers[w].count = hashProbeRange(small, large, lo, hi, nil, e.workers[w].st)
	})
	total := 0
	for w := 0; w < workers; w++ {
		total += e.workers[w].count
	}
	if e.st != nil {
		observeSince(e.st, stats.CtrQueriesHash, stats.LatHash, start)
	}
	return total
}

// CountKParallel is CountK with the largest bitmap's words partitioned across
// `workers` pool parts, each chaining the pairwise segment intersections in
// its persistent private buffers.
func (e *Executor) CountKParallel(workers int, sets ...*Set) int {
	switch len(sets) {
	case 0:
		panic("core: intersection of zero sets")
	case 1:
		return sets[0].n
	case 2:
		return e.CountMergeParallel(sets[0], sets[1], workers)
	}
	if anyCross(sets) {
		// Mixed representations have no shared bitmap to partition; the
		// serial membership-compaction chain handles them.
		return e.CountK(sets...)
	}
	e.orderByBitmap(sets)
	x := e.ord[0]
	rest := e.ord[1:]
	words := len(x.bm.Words())
	if workers < 1 {
		workers = 1
	}
	if workers > words {
		workers = words
	}
	if workers == 1 {
		return e.CountK(sets...)
	}
	var start time.Time
	if e.st != nil {
		start = time.Now()
	}
	maxSeg := x.maxSeg
	for _, s := range rest {
		maxSeg = max(maxSeg, s.maxSeg)
	}
	e.ensureWorkers(workers)
	maps := e.maps
	chunk := (words + workers - 1) / workers
	e.getPool().Do(workers, func(w int) {
		ws := &e.workers[w]
		lo := w * chunk
		hi := min(lo+chunk, words)
		ws.chain1 = growU32(ws.chain1, max(maxSeg, 1))
		ws.chain2 = growU32(ws.chain2, max(maxSeg, 1))
		buf1, buf2 := ws.chain1, ws.chain2
		total := 0
		bitmap.ForEachIntersectingSegmentKRange(maps, lo, hi, func(seg int) {
			cur := x.segment(seg)
			n := len(cur)
			out := buf1
			for _, s := range rest {
				sseg := s.segment(seg & (s.bm.NumSegments() - 1))
				n = kernels.Intersect(out, cur, sseg)
				if n == 0 {
					break
				}
				cur = out[:n]
				if &out[0] == &buf1[0] {
					out = buf2
				} else {
					out = buf1
				}
			}
			total += n
		})
		ws.count = total
	})
	total := 0
	for w := 0; w < workers; w++ {
		total += e.workers[w].count
	}
	if e.st != nil {
		observeSince(e.st, stats.CtrQueriesKWay, stats.LatKWay, start)
	}
	return total
}

// ---------------------------------------------------------------------------
// Pooled default executors backing the package-level compatibility wrappers.
// ---------------------------------------------------------------------------

var defaultExecutors = sync.Pool{New: func() any { return NewExecutor() }}

func getExecutor() *Executor {
	e := defaultExecutors.Get().(*Executor)
	e.maybeAttachStats()   // pooled executors may predate EnableStats
	e.maybeAttachPlanner() // ... or EnablePlanner
	return e
}

func putExecutor(e *Executor) { defaultExecutors.Put(e) }
