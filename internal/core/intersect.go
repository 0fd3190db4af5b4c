package core

import (
	"context"
	"time"

	"fesia/internal/bitmap"
	"fesia/internal/kernels"
	"fesia/internal/simd"
	"fesia/internal/stats"
)

// SkewThreshold is the size ratio below which the adaptive strategy switches
// from the merge-style two-step intersection (FESIAmerge) to the per-element
// hash probe (FESIAhash). Fig. 11 of the paper places the crossover at a
// skew of about 1/4.
const SkewThreshold = 0.25

// coreChunkBlocks sizes the stack mask buffer of the chunked fast paths in
// mergeRange and stageSegPairs: one checkpoint block of 1024 bitmap words
// (256 four-word blocks) per chunk, matching internal/bitmap's fast filter.
const coreChunkBlocks = ctxWordBlock / simd.BlockWords

// CountMerge returns |a ∩ b| using the two-step FESIA algorithm
// (Algorithm 1): bitmap-level AND, then the segment kernel on the
// surviving segment pairs. This is the paper's FESIAmerge. Pairs involving a
// non-segmented set have no merge/hash strategy distinction; they route to
// the cross-representation dispatch matrix (hybrid.go).
//
// The package-level query functions are compatibility wrappers over a pooled
// default Executor; callers on a hot path should hold their own Executor to
// keep its scratch warm.
func CountMerge(a, b *Set) int { return pooled(func(e *Executor) int { return e.CountMerge(a, b) }) }

// IntersectMerge writes a ∩ b into dst and returns the count. dst must have
// room for min(a.Len(), b.Len()) elements. Results are emitted in segment
// order (ascending within each segment); use sort.Slice for value order.
// Cross-representation pairs route to the dispatch matrix (hybrid.go).
func IntersectMerge(dst []uint32, a, b *Set) int {
	return pooled(func(e *Executor) int {
		n, _ := e.pair(nil, stratMerge, a, b, dst, nil)
		return n
	})
}

// CountHash returns |a ∩ b| with the skewed-input strategy of Section VI.
// Complexity O(min(n1, n2)). This is the paper's FESIAhash.
// Cross-representation pairs route to the dispatch matrix (hybrid.go).
func CountHash(a, b *Set) int { return pooled(func(e *Executor) int { return e.CountHash(a, b) }) }

// Count picks the strategy adaptively: the hash probe when one set is
// dramatically smaller (skew below SkewThreshold), the two-step merge
// otherwise — matching the FESIAmerge/FESIAhash crossover of Fig. 11.
func Count(a, b *Set) int { return pooled(func(e *Executor) int { return e.Count(a, b) }) }

// Intersect writes a ∩ b into dst with the adaptively chosen strategy and
// returns the count.
func Intersect(dst []uint32, a, b *Set) int {
	return pooled(func(e *Executor) int { return e.Intersect(dst, a, b) })
}

// CountK returns |s1 ∩ s2 ∩ ... ∩ sk|. The k bitmaps are ANDed together to
// prune segments none of which share a bit; the surviving segments'
// element lists are then intersected pairwise with the segment kernel.
// Expected work is O(kn/√w + r) (Proposition 2).
func CountK(sets ...*Set) int { return pooled(func(e *Executor) int { return e.CountK(sets...) }) }

// IntersectK writes the k-way intersection into dst and returns the count.
// dst must have room for the smallest set's length.
func IntersectK(dst []uint32, sets ...*Set) int {
	return pooled(func(e *Executor) int { return e.IntersectK(dst, sets...) })
}

// CountKParallel is CountK with the largest bitmap's words partitioned
// across `workers` parts of the persistent shared pool (Section VI's
// multicore scheme applied to the k-way AND).
func CountKParallel(workers int, sets ...*Set) int {
	return pooled(func(e *Executor) int { return e.CountKParallel(workers, sets...) })
}

// CountMergeParallel is CountMerge across `workers` parts of the shared pool
// (Section VI, multicore): the larger bitmap's words are partitioned across
// workers; segments never straddle words, so workers touch disjoint segment
// pairs.
func CountMergeParallel(a, b *Set, workers int) int {
	return pooled(func(e *Executor) int { return e.CountMergeParallel(a, b, workers) })
}

// mergeRange is the merge strategy's one hot loop: it fuses the three
// bitmap-level steps of Section IV (word AND, segment transformation, index
// extraction) with the segment kernel calls, over words [lo, hi) of the
// larger bitmap, writing into the (dst, emit) sink. x must be the
// larger-bitmap set. It walks the range in ctxWordBlock-aligned blocks and
// checks ctx (when non-nil) before each; it returns the match count and the
// number of surviving segment pairs.
//
// The writer's stats shard, when attached, receives the segment-survival
// counters at range granularity; the pair tally itself is a register
// increment kept unconditional so the disabled path stays branch-free. On 1
// in stats.KernelSampleRate ranges (instr.kernelShard) the shard also
// receives the per-pair kernel-dispatch histogram, so the histogram's
// per-pair cost is paid on a thin sample while every counter stays exact.
func (in *instr) mergeRange(ctx context.Context, x, y *Set, lo, hi int, dst []uint32, emit Visitor) (n, pairs int, err error) {
	kst := in.kernelShard()
	xw, yw := x.bm.Words(), y.bm.Words()
	wordMask := len(yw) - 1
	spw := x.bm.SegmentsPerWord()
	segBits := x.bm.SegBits()
	segMaskY := y.bm.NumSegments() - 1
	xo, yo := x.offsets, y.offsets
	xr, yr := x.reordered, y.reordered

	// Segment extraction: tzcnt finds the lowest live bit, then the whole
	// segment's bits are cleared at once, so the inner loop runs once per
	// live segment (Section IV steps 2+3 fused, branch-free).
	segClear := uint64(1)<<uint(segBits) - 1
	segShift := uint(simd.Tzcnt32(uint32(segBits))) // log2(segBits)
	alignMask := segBits - 1

	// Chunked mask-stream fast path: the fused AndSegMasks kernel emits one
	// live-segment mask per 4-word block into a stack buffer, and the kernel
	// calls walk the mask stream. Block edges are handled by computing the
	// full edge block and trimming out-of-range segment bits (the over-read
	// stays inside the bitmap: word counts on this path are powers of two
	// >= 2*BlockWords).
	fast := simd.AsmActive() && len(yw) >= simd.BlockWords && hi-lo >= 2*simd.BlockWords
	var masks [coreChunkBlocks]uint32
	for blo := lo; blo < hi; {
		bhi := min((blo/ctxWordBlock+1)*ctxWordBlock, hi)
		if ctx != nil {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		if fast {
			loDown := blo &^ (simd.BlockWords - 1)
			hiUp := (bhi + simd.BlockWords - 1) &^ (simd.BlockWords - 1)
			nb := (hiUp - loDown) / simd.BlockWords
			if simd.AndSegMasksWrap(masks[:nb], xw, yw, loDown, segBits) != 0 {
				if loDown < blo {
					masks[0] &^= 1<<uint((blo-loDown)*spw) - 1
				}
				if hiUp > bhi {
					masks[nb-1] &= 1<<uint((bhi-(hiUp-simd.BlockWords))*spw) - 1
				}
				for bi, m := range masks[:nb] {
					base := (loDown + bi*simd.BlockWords) * spw
					for ; m != 0; m &= m - 1 {
						seg := base + simd.Tzcnt32(m)
						segY := seg & segMaskY
						oa, oaEnd := xo[seg], xo[seg+1]
						ob, obEnd := yo[segY], yo[segY+1]
						pairs++
						if kst != nil {
							kst.Kernel(int(oaEnd-oa), int(obEnd-ob))
						}
						sa, sb := xr[oa:oaEnd], yr[ob:obEnd]
						switch {
						case dst != nil:
							n += kernels.Intersect(dst[n:], sa, sb)
						case emit != nil:
							n += kernels.Visit(sa, sb, emit)
						default:
							n += kernels.Count(sa, sb)
						}
					}
				}
			}
			blo = bhi
			continue
		}
		for i := blo; i < bhi; i++ {
			w := xw[i] & yw[i&wordMask]
			base := i * spw
			for w != 0 {
				segOff := simd.Tzcnt64(w) &^ alignMask
				w &^= segClear << uint(segOff)
				seg := base + segOff>>segShift
				segY := seg & segMaskY
				oa, oaEnd := xo[seg], xo[seg+1]
				ob, obEnd := yo[segY], yo[segY+1]
				pairs++
				if kst != nil {
					kst.Kernel(int(oaEnd-oa), int(obEnd-ob))
				}
				sa, sb := xr[oa:oaEnd], yr[ob:obEnd]
				switch {
				case dst != nil:
					n += kernels.Intersect(dst[n:], sa, sb)
				case emit != nil:
					n += kernels.Visit(sa, sb, emit)
				default:
					n += kernels.Count(sa, sb)
				}
			}
		}
		blo = bhi
	}
	if in.st != nil {
		in.st.Add(stats.CtrSegPairs, uint64(pairs))
		in.st.Add(stats.CtrSegmentsScanned, uint64((hi-lo)*spw))
	}
	return n, pairs, err
}

// hashProbe is the hash strategy's one loop: elems (sorted, typically the
// smaller set's reordered array) each probe large's bitmap, and only
// elements whose bit is set are compared against the one segment list the
// bit selects (Section VI). Matches go to the (dst, emit) sink and the
// probe/survivor counters to the writer's stats shard; ctx (when non-nil)
// is checked every ctxProbeBlock probes.
func (in *instr) hashProbe(ctx context.Context, elems []uint32, large *Set, dst []uint32, emit Visitor) (int, error) {
	return blocks(ctx, len(elems), ctxProbeBlock, dst, func(lo, hi int, dst []uint32) int {
		return in.hashProbeElems(elems[lo:hi], large, dst, emit)
	})
}

// gatherProbeMaxBits is the largest bitmap the gathered AVX-512 probe stage
// can serve: survivor positions are compress-stored as uint32 lanes. Bitmaps
// beyond 4 Gbit (64 Gi elements at the paper's scale) fall back to the
// scalar probe loop.
const gatherProbeMaxBits = 1 << 32

// hashProbeElems is the probe loop proper, over any sorted element slice —
// the segmented-set membership kernel shared by the hash strategy and the
// array×seg entry of the cross-representation dispatch matrix. Matches are
// appended to dst (when non-nil) and streamed through emit (when non-nil).
// On the AVX-512 rung the hash+bitmap-test half of the loop runs through the
// gathered probe stage (simd.ProbeStage) sixteen elements at a time; the
// surviving segment scans, match order and counters are identical either
// way.
func (in *instr) hashProbeElems(elems []uint32, large *Set, dst []uint32, emit Visitor) int {
	if simd.GatherProbeActive() && len(elems) >= 16 && large.bm.Bits() <= gatherProbeMaxBits {
		return in.hashProbeElemsGather(elems, large, dst, emit)
	}
	return in.hashProbeElemsScalar(elems, large, dst, emit)
}

// noteProbes records one probe pass's probe and survivor counts.
func (in *instr) noteProbes(probes, survivors int) {
	if in.st != nil {
		in.st.Add(stats.CtrHashProbes, uint64(probes))
		in.st.Add(stats.CtrHashSurvivors, uint64(survivors))
	}
}

// hashProbeElemsGather is hashProbeElems with the probe half vectorized:
// blocks of up to ProbeStageBlock elements are hashed, bitmap-gathered and
// bit-tested in zmm lanes, and only the compress-stored survivors reach the
// segment-scan loop below — which is the same last-segment-cached scan the
// scalar path runs, reading the survivor's position instead of recomputing
// it. The out arrays live on the stack (ProbeStage's pointers do not
// escape), keeping the warm path allocation-free.
func (in *instr) hashProbeElemsGather(elems []uint32, large *Set, dst []uint32, emit Visitor) int {
	n := 0
	survivors := 0
	lb := &large.bm
	mBits := lb.Bits()
	words := lb.Words()
	segShift := uint(simd.Tzcnt32(uint32(lb.SegBits()))) // log2(segBits)
	offs := large.offsets
	reord := large.reordered
	seed := large.hasher.Seed()
	lastSeg := -1
	var segList []uint32
	var outE, outP [simd.ProbeStageBlock]uint32
	done := 0
	for done+16 <= len(elems) {
		blk := elems[done:min(done+simd.ProbeStageBlock, len(elems))]
		ns, consumed := simd.ProbeStage(blk, words, seed, mBits-1, outE[:], outP[:])
		done += consumed
		survivors += ns
		for i := 0; i < ns; i++ {
			x := outE[i]
			if seg := int(outP[i]) >> segShift; seg != lastSeg {
				lastSeg = seg
				segList = reord[offs[seg]:offs[seg+1]]
			}
			if segHas(segList, x) {
				n = put(dst, n, emit, x)
			}
		}
	}
	in.noteProbes(done, survivors)
	// Sub-16 tail: the scalar loop finishes the remainder (and adds its own
	// share of the counters).
	if done < len(elems) {
		n += in.hashProbeElemsScalar(elems[done:], large, tail(dst, n), emit)
	}
	return n
}

// hashProbeElemsScalar is the scalar probe loop — the reference semantics of
// hashProbeElems and the only path below the AVX-512 rung.
func (in *instr) hashProbeElemsScalar(elems []uint32, large *Set, dst []uint32, emit Visitor) int {
	n := 0
	survivors := 0
	lb := &large.bm
	mBits := lb.Bits()
	words := lb.Words()
	segShift := uint(simd.Tzcnt32(uint32(lb.SegBits()))) // log2(segBits)
	offs := large.offsets
	reord := large.reordered
	hasher := large.hasher
	lastSeg := -1
	var segList []uint32
	for _, x := range elems {
		pos := hasher.Pos(x, mBits)
		if words[pos>>6]&(1<<(pos&63)) == 0 {
			continue
		}
		survivors++
		if seg := int(pos) >> segShift; seg != lastSeg {
			lastSeg = seg
			segList = reord[offs[seg]:offs[seg+1]]
		}
		if segHas(segList, x) {
			n = put(dst, n, emit, x)
		}
	}
	in.noteProbes(len(elems), survivors)
	return n
}

// segHas reports whether the sorted segment list seg holds x: the assembly
// compare-all-lanes probe on long lists, the scalar early-exit scan
// otherwise. It is the survivor scan of every hash-probe loop.
func segHas(seg []uint32, x uint32) bool {
	if len(seg) >= containsCutover {
		return simd.Contains(seg, x)
	}
	for _, v := range seg {
		if v >= x {
			return v == x
		}
	}
	return false
}

// useHash is the static skew rule: the hash strategy when the smaller set is
// below SkewThreshold of the larger.
func useHash(a, b *Set) bool {
	small, large := a.n, b.n
	if small > large {
		small, large = large, small
	}
	if large == 0 {
		return false
	}
	return float64(small) < SkewThreshold*float64(large)
}

// DispatchTrace returns the (sizeA, sizeB) segment-size pairs that the
// two-step intersection would dispatch to kernels, in dispatch order. The
// instruction-cache simulation behind Table II replays this trace. The trace
// is sized exactly by a bitmap pre-pass, so the only allocation is the
// returned slice itself. Cross-representation pairs dispatch no segment
// kernels; the trace is nil.
func DispatchTrace(a, b *Set) [][2]int {
	if crossPair(a, b) {
		return nil
	}
	compatible(a, b)
	x, y := ordered(a, b)
	trace := make([][2]int, 0, bitmap.CountIntersectingSegments(&x.bm, &y.bm))
	bitmap.ForEachIntersectingSegment(&x.bm, &y.bm, func(sx, sy int) {
		trace = append(trace, [2]int{len(x.segment(sx)), len(y.segment(sy))})
	})
	return trace
}

// ---------------------------------------------------------------------------
// Instrumented intersection for the Fig. 14 performance breakdown.
// ---------------------------------------------------------------------------

// Breakdown reports where time went during a two-step intersection.
type Breakdown struct {
	BitmapTime  time.Duration // step 1: bitmap AND + segment index extraction
	SegmentTime time.Duration // step 2: specialized kernels
	SegPairs    int           // segment pairs surviving the filter (true + false positive)
	Count       int           // final intersection size
}

// CountMergeBreakdown is CountMerge with per-step timing, running on the
// executor's staged-dispatch scratch: pass 1 (bitmap AND + segment index
// extraction) stages the surviving pairs, pass 2 dispatches the kernels, and
// each pass is timed in isolation. The staging buffer is retained across
// calls, so repeated Fig. 14 breakdown sweeps are allocation-free once warm.
// The combined result is identical to CountMerge. Cross-representation pairs
// have no bitmap pass; their whole matrix-dispatched run is reported as
// SegmentTime with zero SegPairs.
func (e *Executor) CountMergeBreakdown(a, b *Set) Breakdown {
	compatible(a, b)
	if crossPair(a, b) {
		start := time.Now()
		n, _ := e.crossRun(nil, a, b, nil, nil)
		return Breakdown{SegmentTime: time.Since(start), Count: n}
	}
	x, y := ordered(a, b)

	start := time.Now()
	recs := stageSegPairs(x, y, e.staged[:0])
	e.staged = recs
	bitmapTime := time.Since(start)

	start = time.Now()
	n, touch := dispatchStaged(x.reordered, y.reordered, recs, nil, nil)
	segTime := time.Since(start)
	e.touch += touch

	return Breakdown{
		BitmapTime:  bitmapTime,
		SegmentTime: segTime,
		SegPairs:    len(recs),
		Count:       n,
	}
}

// CountMergeBreakdown is the pooled-executor compatibility wrapper; hot
// breakdown sweeps should hold an Executor to keep its staging buffer warm.
func CountMergeBreakdown(a, b *Set) Breakdown {
	var bd Breakdown
	pooled(func(e *Executor) int { bd = e.CountMergeBreakdown(a, b); return 0 })
	return bd
}

// HashBreakdown reports where time went during a skewed-input (FESIAhash)
// intersection — the hash-side counterpart of Breakdown, covering the
// strategy CountMergeBreakdown says nothing about.
type HashBreakdown struct {
	StageTime time.Duration // branch-free bitmap probing + survivor compaction
	TouchTime time.Duration // read-ahead touch pass over survivor segment lines
	ScanTime  time.Duration // survivor segment-list scans
	Probes    int           // elements probed (the smaller set's size)
	Survivors int           // probes whose bitmap bit was set (true + false positive)
	Blocks    int           // probeBlock-sized staging blocks processed
	Count     int           // final intersection size
}

// CountHashBreakdown is CountHash with per-phase timing, running the staged
// two-phase probe (batch engine layout) so the branch-free staging, the
// read-ahead touch pass and the segment scans are each timed in isolation.
// The stage buffer is the executor's persistent one, so repeated breakdown
// sweeps are allocation-free once warm. The count is identical to CountHash.
// Cross-representation pairs have no staged probe; their whole run is
// reported as ScanTime with the probing-side size as Probes.
func (e *Executor) CountHashBreakdown(a, b *Set) HashBreakdown {
	compatible(a, b)
	if crossPair(a, b) {
		start := time.Now()
		n, _ := e.crossRun(nil, a, b, nil, nil)
		return HashBreakdown{
			ScanTime: time.Since(start),
			Probes:   min(a.n, b.n),
			Count:    n,
		}
	}
	small, large := bySize(a, b)
	e.ensureProbe()
	stage := e.probeStage
	reord := large.reordered
	elems := small.reordered

	bd := HashBreakdown{Probes: small.n}
	var touch uint64
	for lo := 0; lo < len(elems); lo += probeBlock {
		bd.Blocks++
		t0 := time.Now()
		ns := stageProbes(elems[lo:min(lo+probeBlock, len(elems))], nil, large, stage)
		bd.Survivors += ns
		t1 := time.Now()
		bd.StageTime += t1.Sub(t0)
		for i := range stage[:ns] {
			touch += uint64(reord[stage[i].oa])
		}
		t2 := time.Now()
		bd.TouchTime += t2.Sub(t1)
		bd.Count = scanStage(stage[:ns], reord, nil, nil, bd.Count)
		bd.ScanTime += time.Since(t2)
	}
	e.touch += uint32(touch)
	return bd
}

// CountHashBreakdown is the pooled-executor compatibility wrapper for the
// hash-side breakdown.
func CountHashBreakdown(a, b *Set) HashBreakdown {
	var bd HashBreakdown
	pooled(func(e *Executor) int { bd = e.CountHashBreakdown(a, b); return 0 })
	return bd
}

// HashProbe is one element's outcome in a hash-strategy probe trace.
type HashProbe struct {
	Elem     uint32 // probed element (smaller set, segment order)
	Survived bool   // bitmap bit was set; the segment list was scanned
	SegLen   int    // length of the scanned segment list (0 if filtered out)
	Match    bool   // element present in the larger set
}

// HashProbeTrace returns the per-element outcomes the skewed-input strategy
// would produce, in probe order — the hash-side counterpart of DispatchTrace
// (which covers only the merge strategy's kernel dispatches). The filter rate
// and scanned-segment lengths are the quantities behind the strategy's
// O(min(n1, n2)) bound. The only allocation is the returned slice. Pairs
// involving a non-segmented set never hash-probe a bitmap; the trace is nil.
func HashProbeTrace(a, b *Set) []HashProbe {
	if crossPair(a, b) {
		return nil
	}
	compatible(a, b)
	small, large := bySize(a, b)
	lb := &large.bm
	mBits := lb.Bits()
	words := lb.Words()
	segShift := uint(simd.Tzcnt32(uint32(lb.SegBits()))) // log2(segBits)
	offs := large.offsets
	reord := large.reordered
	hasher := large.hasher
	trace := make([]HashProbe, 0, small.n)
	for _, x := range small.reordered {
		pos := hasher.Pos(x, mBits)
		p := HashProbe{Elem: x}
		if words[pos>>6]&(1<<(pos&63)) != 0 {
			p.Survived = true
			seg := int(pos) >> segShift
			list := reord[offs[seg]:offs[seg+1]]
			p.SegLen = len(list)
			p.Match = segHas(list, x)
		}
		trace = append(trace, p)
	}
	return trace
}
