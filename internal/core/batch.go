package core

import (
	"context"

	"fesia/internal/kernels"
	"fesia/internal/planner"
	"fesia/internal/simd"
	"fesia/internal/stats"
	"fesia/internal/trace"
)

// This file implements the batch one-vs-many query engine: intersecting one
// query set against a list of candidate sets, the access pattern of the
// paper's database-query task (Section VII-F, one keyword's posting list vs
// many others) and of triangle counting (one vertex's forward neighbors vs
// each neighbor's list). The engine amortizes per-query work across the
// candidate list: the query set's bitmap words and staging
// scratch stay pinned hot instead of being re-derived per pair, and the
// two-step algorithm runs as a *staged two-pass dispatch* — the split the
// paper's Fig. 14 breakdown instruments, used here as an optimization.
//
// Pass 1 streams the bitmap word-AND and stages every surviving segment pair
// as a compact (oa, oaEnd, ob, obEnd) record in a reusable executor
// buffer. Pass 2 walks the staged records and runs the segment kernel on
// each, touching the reordered data of segments a fixed distance ahead so
// their cache lines are in flight by the time their kernel runs. Separating
// the phases keeps the unpredictable tzcnt/branch phase out of the kernel
// phase's pipeline, and the record walk itself is branch-predictable.

// stagedSeg is one surviving segment pair staged by dispatch pass 1:
// half-open offset ranges into the two sets' reordered arrays.
type stagedSeg struct {
	oa, oaEnd uint32 // x-side range in the larger-bitmap set's reordered array
	ob, obEnd uint32 // y-side range in the other set's reordered array
}

// stageReadAhead is the fixed dispatch-to-touch distance of pass 2: while
// record i's kernel runs, the first cache line of record i+stageReadAhead's
// segment data is being fetched. Segments are tiny (a handful of uint32s),
// so one touch per side covers essentially the whole segment.
const stageReadAhead = 8

// stageSegPairs runs dispatch pass 1: mergeRange's fused word-AND /
// segment-extraction loop over the whole bitmap, staging records instead of
// calling kernels. x must be the larger-bitmap set. Records are appended to
// recs (reset by the caller); the possibly-grown slice is returned.
func stageSegPairs(x, y *Set, recs []stagedSeg) []stagedSeg {
	xw, yw := x.bm.Words(), y.bm.Words()
	wordMask := len(yw) - 1
	spw := x.bm.SegmentsPerWord()
	segBits := x.bm.SegBits()
	segMaskY := y.bm.NumSegments() - 1
	xo, yo := x.offsets, y.offsets

	if simd.AsmActive() && len(yw) >= simd.BlockWords && len(xw) >= 2*simd.BlockWords {
		// Chunked mask-stream staging: mergeRange's fast path with staging
		// records in place of kernel dispatch. Word counts are powers of two,
		// so chunks hold whole 4-word blocks.
		var masks [coreChunkBlocks]uint32
		for cb := 0; cb < len(xw); cb += ctxWordBlock {
			nb := min(len(xw)-cb, ctxWordBlock) / simd.BlockWords
			if simd.AndSegMasksWrap(masks[:nb], xw, yw, cb, segBits) == 0 {
				continue
			}
			for bi, m := range masks[:nb] {
				base := (cb + bi*simd.BlockWords) * spw
				for ; m != 0; m &= m - 1 {
					seg := base + simd.Tzcnt32(m)
					segY := seg & segMaskY
					recs = append(recs, stagedSeg{xo[seg], xo[seg+1], yo[segY], yo[segY+1]})
				}
			}
		}
		return recs
	}
	segClear := uint64(1)<<uint(segBits) - 1
	segShift := uint(simd.Tzcnt32(uint32(segBits))) // log2(segBits)
	alignMask := segBits - 1
	for i, xv := range xw {
		w := xv & yw[i&wordMask]
		base := i * spw
		for w != 0 {
			segOff := simd.Tzcnt64(w) &^ alignMask
			w &^= segClear << uint(segOff)
			seg := base + segOff>>segShift
			segY := seg & segMaskY
			recs = append(recs, stagedSeg{xo[seg], xo[seg+1], yo[segY], yo[segY+1]})
		}
	}
	return recs
}

// dispatchStaged runs dispatch pass 2: every staged record goes through the
// segment kernel into the (dst, emit) sink, in staged order — the same
// segment order mergeRange produces — with the fixed-distance read-ahead
// touch of upcoming segment data. The touched words are accumulated and
// returned so the loads cannot be dead-code-eliminated; callers fold the
// value into a sink.
func dispatchStaged(xr, yr []uint32, recs []stagedSeg, dst []uint32, emit Visitor) (n int, touch uint32) {
	for i := range recs {
		if j := i + stageReadAhead; j < len(recs) {
			rj := &recs[j]
			touch += xr[rj.oa] + yr[rj.ob]
		}
		r := &recs[i]
		sa, sb := xr[r.oa:r.oaEnd], yr[r.ob:r.obEnd]
		switch {
		case dst != nil:
			n += kernels.Intersect(dst[n:], sa, sb)
		case emit != nil:
			n += kernels.Visit(sa, sb, emit)
		default:
			n += kernels.Count(sa, sb)
		}
	}
	return n, touch
}

// ---------------------------------------------------------------------------
// Staged hash probe: the batch engine's version of the skewed-input strategy.
// ---------------------------------------------------------------------------

// probeBlock is the staging block of the batch hash probe. One block's
// positions fit comfortably in L1 while giving the out-of-order core dozens
// of independent loads to overlap.
const probeBlock = 128

// containsCutover is the segment length above which survivor scans use the
// assembly compare-all-lanes probe instead of the scalar early-exit scan —
// two full ymm registers of elements, enough to amortize the masked tail.
const containsCutover = 16

// batchParallelMinWork is CountManyParallel's serial cutover: batches whose
// estimated element work is below this run on the serial batch path. Sits
// between the measured skewed/c256 regime (~256k units, serial wins by 1.5x)
// and the uniform/c256 regime (~2M units, parallel starts paying off).
const batchParallelMinWork = 1 << 19

// probeRec is one surviving probe staged by phase 2: the probed element and
// its target segment's half-open range in the large set's reordered array.
type probeRec struct{ x, oa, oaEnd uint32 }

// stageProbes is the staging phase of one probe block, completely
// branch-free: every element's bitmap word and segment bounds are loaded
// unconditionally, and survivors are compacted into stage with a
// conditional index increment instead of a branch. With no unpredictable
// branches in the way, the out-of-order core streams the (cache-missing)
// loads of many probes at once instead of serializing them behind
// mispredicts — the same memory-level-parallelism trick as the merge path's
// two-pass dispatch. Positions come from pos when non-nil (the query's
// memoized hashes), from the large set's hasher otherwise. Returns the
// survivor count.
func stageProbes(blk []uint32, pos []uint64, large *Set, stage []probeRec) int {
	lb := &large.bm
	words, mBits := lb.Words(), lb.Bits()
	segShift := uint(simd.Tzcnt32(uint32(lb.SegBits()))) // log2(segBits)
	offs := large.offsets
	ns := 0
	for k, x := range blk {
		var p uint64
		if pos != nil {
			p = pos[k]
		} else {
			p = large.hasher.Pos(x, mBits)
		}
		hit := int(words[p>>6] >> (p & 63) & 1)
		seg := int(p) >> segShift
		stage[ns] = probeRec{x, offs[seg], offs[seg+1]}
		ns += hit
	}
	return ns
}

// hashProbeStaged probes every element of elems against large in blocks of
// two phases — the staged-dispatch idea applied to the hash strategy:
// stageProbes, then a touch pass that issues every survivor's first segment
// load back to back, then the scan of the staged (and now in-flight) segment
// lists. On the AVX-512 rung (and with no memoized positions) the staging
// phase runs through the gathered probe instead: hash, bitmap gather and bit
// test happen in zmm lanes (simd.ProbeStage), and stage records are built
// from the compress-stored survivors only. Matches go to the (dst, emit)
// sink in the same order hashProbe produces.
//
// stage must hold probeBlock entries. The accumulated touch value is
// returned so the read-ahead loads cannot be dead-code-eliminated; the
// probe/survivor counters go to the writer's stats shard.
func (in *instr) hashProbeStaged(elems []uint32, pos []uint64, large *Set, stage []probeRec, dst []uint32, emit Visitor) (int, uint32) {
	lb := &large.bm
	gather := pos == nil && simd.GatherProbeActive() && lb.Bits() <= gatherProbeMaxBits
	segShift := uint(simd.Tzcnt32(uint32(lb.SegBits()))) // log2(segBits)
	offs, reord := large.offsets, large.reordered
	seed := large.hasher.Seed()
	var outE, outP [probeBlock]uint32 // on the stack: ProbeStage's pointers do not escape

	n, survivors := 0, 0
	var touch uint64
	for lo := 0; lo < len(elems); {
		hi := min(lo+probeBlock, len(elems))
		var ns int
		if gather && len(elems)-lo >= 16 {
			var consumed int
			ns, consumed = simd.ProbeStage(elems[lo:hi], lb.Words(), seed, lb.Bits()-1, outE[:], outP[:])
			for i := range ns {
				seg := int(outP[i]) >> segShift
				stage[i] = probeRec{outE[i], offs[seg], offs[seg+1]}
			}
			hi = lo + consumed
		} else if pos != nil {
			ns = stageProbes(elems[lo:hi], pos[lo:hi], large, stage)
		} else {
			ns = stageProbes(elems[lo:hi], nil, large, stage)
		}
		lo = hi
		survivors += ns
		// Survivors' segments are never empty — their bit was set.
		for i := range stage[:ns] {
			touch += uint64(reord[stage[i].oa])
		}
		n = scanStage(stage[:ns], reord, dst, emit, n)
	}
	in.noteProbes(len(elems), survivors)
	return n, uint32(touch)
}

// scanStage walks one staging block's surviving probes against the large
// set's segment lists into the (dst, emit) sink. n is the running match
// count (and dst write cursor); the updated count is returned.
func scanStage(recs []probeRec, reord, dst []uint32, emit Visitor, n int) int {
	for _, r := range recs {
		if segHas(reord[r.oa:r.oaEnd], r.x) {
			n = put(dst, n, emit, r.x)
		}
	}
	return n
}

// probeCache memoizes one set's hash positions for one bitmap size. Within a
// batch call the query set is fixed, so when the query is the smaller (= the
// probing) side of the hash strategy, every same-bitmap-size candidate sees
// the exact same probe positions — the hash need only be computed for the
// first such candidate, not once per candidate. The cache is invalidated at
// the start of every batch call (the query may have changed) and whenever a
// candidate's bitmap size differs from the cached one.
type probeCache struct {
	pos  []uint64
	bits uint64 // bitmap size the cache holds positions for; 0 = invalid
}

// fill recomputes the cache for q against bitmap size mBits.
func (c *probeCache) fill(q *Set, mBits uint64) {
	if cap(c.pos) < q.n {
		c.pos = make([]uint64, q.n)
	}
	c.pos = c.pos[:q.n]
	h := q.hasher
	for i, x := range q.reordered {
		c.pos[i] = h.Pos(x, mBits)
	}
	c.bits = mBits
}

// hashProbeBatch routes one batch hash-strategy step: when the query itself
// is the probing side and big enough to amortize staging, the probe runs on
// the scratch's memoized position cache; otherwise it falls through to the
// self-hashing staged probe. On the AVX-512 rung the position cache is
// skipped entirely: the gathered stage recomputes the hash in zmm lanes for
// less than the cache's per-element load costs, and folds the bitmap test
// into the same pass.
func (s *scratch) hashProbeBatch(q, small, large *Set, dst []uint32, emit Visitor) int {
	var pos []uint64
	gather := simd.GatherProbeActive() && large.bm.Bits() <= gatherProbeMaxBits
	if !gather && small == q && small.n >= probeBlock {
		if mBits := large.bm.Bits(); s.qcache.bits != mBits {
			s.qcache.fill(q, mBits)
		}
		pos = s.qcache.pos
	}
	n, touch := s.in.hashProbeStaged(small.reordered, pos, large, s.probeStage, dst, emit)
	s.touch += touch
	return n
}

// ensureProbe sizes the scratch's staged-probe buffer and invalidates the
// query position cache (each batch call may carry a different query).
func (s *scratch) ensureProbe() {
	if cap(s.probeStage) < probeBlock {
		s.probeStage = make([]probeRec, probeBlock)
	}
	s.probeStage = s.probeStage[:probeBlock]
	s.qcache.bits = 0
}

// ---------------------------------------------------------------------------
// One-vs-many batch queries.
// ---------------------------------------------------------------------------

// step is the batch engine's one per-candidate step: q ∩ c on this scratch,
// into the (dst, emit) sink, returning the count. It matches the pair
// operator's answer and order exactly — the same planner or skew-rule
// strategy choice — but merge candidates run the staged two-pass dispatch
// and hash candidates the staged probe on the query's memoized positions.
// Per-query instrumentation (strategy counters, latency) belongs to the
// batch as a whole; step records only the per-pair counters.
func (s *scratch) step(q, c *Set, dst []uint32, emit Visitor) int {
	compatible(q, c)
	if c.n == 0 || q.n == 0 {
		return 0
	}
	if crossPair(q, c) {
		n, _ := s.crossRun(nil, q, c, dst, emit)
		return n
	}
	hash := useHash(q, c)
	var ch planner.Choice
	if s.in.plan != nil { // the planner-off check stays inline per candidate
		ch, hash = s.in.planSegSeg(q, c)
	}
	start := planStart(ch)
	var n int
	if hash {
		small, large := bySize(q, c)
		n = s.hashProbeBatch(q, small, large, dst, emit)
	} else {
		n = s.mergeStaged(q, c, dst, emit)
	}
	s.in.planRecord(ch, start)
	return n
}

// mergeStaged is the batch engine's merge strategy: pass 1 stages the
// surviving segment pairs into the scratch's record buffer, pass 2
// dispatches them into the (dst, emit) sink. With stats on, the exact
// merge-side counters are recorded and, on sampled candidates, the kernel
// histogram is replayed from the staged records, so the dispatch loop itself
// stays untouched.
func (s *scratch) mergeStaged(a, b *Set, dst []uint32, emit Visitor) int {
	x, y := ordered(a, b)
	s.staged = stageSegPairs(x, y, s.staged[:0])
	if st := s.in.st; st != nil {
		if kst := s.in.kernelShard(); kst != nil {
			for _, r := range s.staged {
				kst.Kernel(int(r.oaEnd-r.oa), int(r.obEnd-r.ob))
			}
		}
		st.Add(stats.CtrSegPairs, uint64(len(s.staged)))
		st.Add(stats.CtrSegmentsScanned, uint64(x.bm.NumSegments()))
	}
	n, touch := dispatchStaged(x.reordered, y.reordered, s.staged, dst, emit)
	s.touch += touch
	return n
}

// many is the serial batch driver behind CountMany, IntersectManyInto,
// VisitMany and CountManyCtx: step over every candidate on the executor's
// own scratch, checking ctx (when non-nil) once per candidate. out[i], when
// out is non-nil, receives candidate i's count; dst, when non-nil, receives
// the matches back to back; emit, when non-nil, receives (candidate index,
// element) pairs. Returns the total match count.
func (e *Executor) many(ctx context.Context, q *Set, candidates []*Set, out []int, dst []uint32, emit func(candidate int, v uint32)) (int, error) {
	if err := checkpoint(ctx); err != nil {
		return 0, e.noteCancel(err)
	}
	if len(candidates) == 0 {
		return 0, nil
	}
	start := e.in.begin(planner.Choice{})
	e.ensureProbe()
	if ctx == nil && out != nil && dst == nil && emit == nil {
		// The plain count loop stays free of the checkpoint and sink
		// bookkeeping: on batches of tiny candidates (triangle counting) the
		// per-candidate overhead is the cost, and the extra live values of
		// the general loop spill.
		total := 0
		for i, c := range candidates {
			out[i] = e.step(q, c, nil, nil)
			total += out[i]
		}
		e.in.finish(trace.ArmBatch, start, planner.Choice{}, len(candidates), q.n)
		return total, nil
	}
	cand := 0
	var visit Visitor
	if emit != nil {
		visit = func(v uint32) { emit(cand, v) }
	}
	total := 0
	for i, c := range candidates {
		if err := checkpoint(ctx); err != nil {
			return 0, e.noteCancel(err)
		}
		cand = i
		n := e.step(q, c, tail(dst, total), visit)
		if out != nil {
			out[i] = n
		}
		total += n
	}
	e.in.finish(trace.ArmBatch, start, planner.Choice{}, len(candidates), q.n)
	return total, nil
}

// manyParallel is the parallel batch driver behind CountManyParallel and
// CountManyParallelCtx: the *candidate list* is partitioned across `workers`
// parts of the executor's persistent pool — finer-grained and better
// balanced than per-pair bitmap-word splitting when candidates are small.
// Candidates are scheduled in descending size order and dealt to workers
// round-robin, so no worker ends up with all the heavy candidates. Each
// worker runs step on its own scratch and checks ctx once per candidate;
// out[i] is written by exactly one worker.
func (e *Executor) manyParallel(ctx context.Context, q *Set, candidates []*Set, out []int, workers int) error {
	workers = min(workers, len(candidates))
	if workers <= 1 || batchWork(q, candidates) < batchParallelMinWork {
		_, err := e.many(ctx, q, candidates, out, nil, nil)
		return err
	}
	if err := checkpoint(ctx); err != nil {
		return e.noteCancel(err)
	}
	start := e.in.begin(planner.Choice{})
	// Size-ordered schedule: sort candidate indices by descending set size,
	// then deal index k to worker k mod workers. Round-robin over a sorted
	// order bounds any worker's load at (total + max)/workers.
	if cap(e.sched) < len(candidates) {
		e.sched = make([]int32, len(candidates))
	}
	sched := e.sched[:len(candidates)]
	for i := range sched {
		sched[i] = int32(i)
	}
	sortIdxByLenDesc(sched, candidates)
	e.ensureWorkers(workers)
	e.getPool().Do(workers, func(w int) {
		ws := &e.workers[w]
		ws.ensureProbe()
		for k := w; k < len(sched) && checkpoint(ctx) == nil; k += workers {
			i := sched[k]
			out[i] = ws.step(q, candidates[i], nil, nil)
		}
	})
	if err := checkpoint(ctx); err != nil {
		return e.noteCancel(err)
	}
	e.in.finish(trace.ArmBatch, start, planner.Choice{}, len(candidates), q.n)
	return nil
}

// batchWork is manyParallel's work-size proxy for its serial cutover: a
// batch whose total work cannot amortize the pool hand-off runs serially on
// the warm batch path — at small scale the fork/join and per-worker cache
// re-warming cost more than they save (BENCH_batch.json's skewed/c256
// regime). Each candidate is charged its strategy's dominant term: probes
// for the hash side, both segment streams for the merge side.
func batchWork(q *Set, candidates []*Set) int {
	work := 0
	for _, c := range candidates {
		if !crossPair(q, c) && useHash(q, c) {
			work += min(q.n, c.n)
		} else {
			work += q.n + c.n
		}
	}
	return work
}

// CountMany fills out[i] with |q ∩ candidates[i]| for every candidate,
// exactly matching a loop of Count(q, candidates[i]) — including the
// per-candidate adaptive merge/hash switch — but amortizing query-side work
// across the batch: q's bitmap words and the staging buffer stay
// hot, and the merge pairs run through the staged two-pass dispatch. out must
// have at least len(candidates) entries. Zero heap allocations once the
// staging buffer has grown to the workload's largest candidate.
func (e *Executor) CountMany(q *Set, candidates []*Set, out []int) {
	if len(out) < len(candidates) {
		panic("core: CountMany output shorter than candidate list")
	}
	e.many(nil, q, candidates, out, nil, nil)
}

// IntersectManyInto writes q ∩ candidates[i] for every candidate into dst,
// back to back, recording each candidate's count in counts[i] and returning
// the total number of elements written. Per-candidate results match
// Intersect(dst, q, candidates[i]) exactly (same strategy choice, same
// segment order). dst must have room for the sum over candidates of
// min(q.Len(), candidate.Len()); counts must have at least len(candidates)
// entries. Zero heap allocations once warm.
func (e *Executor) IntersectManyInto(dst []uint32, counts []int, q *Set, candidates []*Set) int {
	if len(counts) < len(candidates) {
		panic("core: IntersectManyInto counts shorter than candidate list")
	}
	n, _ := e.many(nil, q, candidates, counts, dst, nil)
	return n
}

// VisitMany streams every q ∩ candidates[i] through emit as (candidate
// index, element) pairs, in the same per-candidate order IntersectManyInto
// writes, without materializing any result. Zero heap allocations once warm
// (the emit closure itself is the caller's).
func (e *Executor) VisitMany(q *Set, candidates []*Set, emit func(candidate int, v uint32)) {
	e.many(nil, q, candidates, nil, nil, emit)
}

// CountManyParallel is CountMany with the candidate list partitioned across
// `workers` parts of the executor's persistent pool; batches too small to
// amortize the hand-off run serially (see manyParallel).
func (e *Executor) CountManyParallel(q *Set, candidates []*Set, out []int, workers int) {
	if len(out) < len(candidates) {
		panic("core: CountManyParallel output shorter than candidate list")
	}
	e.manyParallel(nil, q, candidates, out, workers)
}

// ---------------------------------------------------------------------------
// Pooled compatibility wrappers; hot loops should hold their own Executor.
// ---------------------------------------------------------------------------

// CountMany fills out[i] with |q ∩ candidates[i]| on a pooled default
// Executor.
func CountMany(q *Set, candidates []*Set, out []int) {
	pooled(func(e *Executor) int { e.CountMany(q, candidates, out); return 0 })
}

// IntersectManyInto writes every q ∩ candidates[i] into dst back to back on
// a pooled default Executor; see Executor.IntersectManyInto.
func IntersectManyInto(dst []uint32, counts []int, q *Set, candidates []*Set) int {
	return pooled(func(e *Executor) int { return e.IntersectManyInto(dst, counts, q, candidates) })
}

// CountManyParallel is CountMany partitioned across `workers` parts of the
// shared pool on a pooled default Executor.
func CountManyParallel(q *Set, candidates []*Set, out []int, workers int) {
	pooled(func(e *Executor) int { e.CountManyParallel(q, candidates, out, workers); return 0 })
}

// sortIdxByLenDesc heap-sorts idx in place so that sets[idx[0]] is the
// largest set — no allocation, unlike sort.Slice.
func sortIdxByLenDesc(idx []int32, sets []*Set) {
	// Build a min-heap on set length, then pop minima into the tail: the
	// smallest sets fill the slice back-to-front, leaving descending order.
	less := func(a, b int32) bool { return sets[a].n < sets[b].n }
	n := len(idx)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(idx, i, n, less)
	}
	for end := n - 1; end > 0; end-- {
		idx[0], idx[end] = idx[end], idx[0]
		siftDown(idx, 0, end, less)
	}
}

func siftDown(idx []int32, root, end int, less func(a, b int32) bool) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && less(idx[child+1], idx[child]) {
			child++
		}
		if !less(idx[child], idx[root]) {
			return
		}
		idx[root], idx[child] = idx[child], idx[root]
		root = child
	}
}
