// Package core implements FESIA (ICDE 2020): the segmented-bitmap set data
// structure and the two-step intersection algorithm.
//
// A Set is built offline from a collection of 32-bit integers (Section
// III-B): elements are hashed into an m-bit bitmap (m a power of two,
// m ≈ n·√w by default), bits are grouped into s-bit segments, and the
// elements are stored segment-by-segment (sorted within each segment) in a
// reordered array with per-segment offsets. That is the paper's Fig. 1 minus
// its Size array: a segment's size is the difference of two adjacent
// offsets, so storing it would cost 4 bytes per segment for nothing.
//
// Intersections then run in two steps (Section III-C): a bitmap-level AND
// prunes segments with no common bits, and the segment kernel (package
// kernels) intersects the element lists of the surviving segment pairs. The
// expected work is O(n/√w + r) (Proposition 1).
//
// The package also provides the paper's extensions: k-way intersection
// (Section VI, O(kn/√w + r)), the hash-probe strategy for dramatically
// skewed inputs (FESIAhash, O(min(n1, n2))), an adaptive strategy switch,
// and multicore parallel intersection by bitmap partitioning.
package core

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"fesia/internal/bitmap"
	"fesia/internal/hashutil"
	"fesia/internal/simd"
	"fesia/internal/stats"
)

// Rep identifies a set's physical representation. A corpus may freely mix
// representations: every intersection path accepts any (Rep × Rep) pair via
// the cross-representation dispatch matrix in hybrid.go.
type Rep uint8

const (
	// RepSegmented is the FESIA segmented-bitmap structure of the paper's
	// Fig. 1 — the right layout for large sets of moderate density, where
	// the bitmap filter prunes most segment pairs.
	RepSegmented Rep = iota
	// RepArray stores the elements as a plain sorted []uint32 — 4 bytes per
	// element with zero metadata, the right layout for tiny or very sparse
	// sets where segmented-bitmap overhead (~2.5x the element bytes at the
	// default scale) dominates.
	RepArray
	// RepDense stores a plain bitmap over the set's value span — the right
	// layout when elements are packed densely enough that one bit per span
	// position beats four bytes per element, and intersection collapses to
	// word-AND + popcount.
	RepDense
	numReps
	// RepAuto (build-time only, never the representation of a built set)
	// selects per set by the density/size heuristic in chooseRep.
	RepAuto Rep = 0xff
)

// String returns the representation's stable external name.
func (r Rep) String() string {
	switch r {
	case RepSegmented:
		return "segmented"
	case RepArray:
		return "array"
	case RepDense:
		return "dense"
	case RepAuto:
		return "auto"
	}
	return "invalid"
}

// Representation-selection heuristic thresholds (RepAuto).
const (
	// ArrayMaxLen: sets at or below this size take the array representation.
	// A segmented bitmap at the default m = n·√w scale costs ~14 bytes per
	// element in bitmap words, per-segment offsets and elements; a sorted
	// array costs 4. Below this size the bitmap filter has nothing to
	// amortize against.
	ArrayMaxLen = 256
	// DenseMaxBitsPerElem: sets whose value span is at most this many bits
	// per element take the dense-bitmap representation. At 16 bits per
	// element the dense bitmap is at most 2 bytes per element — half the
	// array representation, a seventh of segmented — and the
	// intersection is a straight word-AND.
	DenseMaxBitsPerElem = 16
)

// chooseRep picks a representation for a sorted, deduplicated element list.
// A forced choice other than RepAuto is honored as-is, with one exception:
// the dense bitmap has no encoding for the empty set (its canonical cover
// requires at least one set bit), so empty sets forced dense become arrays,
// as do empty sets under RepAuto.
func chooseRep(sorted []uint32, force Rep) Rep {
	if len(sorted) == 0 {
		if force == RepSegmented {
			return RepSegmented
		}
		return RepArray
	}
	if force != RepAuto {
		return force
	}
	if len(sorted) <= ArrayMaxLen {
		return RepArray
	}
	span := uint64(sorted[len(sorted)-1]) - uint64(sorted[0]) + 1
	if span <= uint64(len(sorted))*DenseMaxBitsPerElem {
		return RepDense
	}
	return RepSegmented
}

// Config controls how a Set is built. Sets that will be intersected together
// must be built with identical Width, SegBits and Seed; bitmap sizes
// may differ (they are reconciled via the power-of-two wrapping rule).
// Representations may differ freely across sets of one corpus.
type Config struct {
	// Width is the vector width w of the paper's analysis (SSE, AVX,
	// AVX512): it sets the default bitmap scale √w. Sets built with
	// different widths cannot be intersected together. Default: AVX.
	Width simd.Width

	// SegBits is the segment size s in bits: 8, 16 or 32. Smaller segments
	// mean more, smaller segment intersections (see Fig. 14). Default: 8.
	SegBits int

	// Scale is the number of bitmap bits per element before rounding m up
	// to a power of two. The paper's analysis picks m = n·√w; 0 means use
	// √Width. Fig. 14 sweeps this knob.
	Scale float64

	// Seed salts the universal hash function.
	Seed uint64

	// Rep selects the per-set representation. The zero value RepSegmented
	// builds the paper's segmented bitmap for every set (the historical
	// behavior); RepAuto picks segmented / array / dense per set by the
	// density/size heuristic (chooseRep), and RepArray / RepDense force one
	// representation for every set — the explicit override knob. Rep is a
	// build-time knob only: it is not serialized (snapshots record each
	// set's actual representation instead) and is ignored by compatible().
	Rep Rep
}

// DefaultConfig returns the configuration used throughout the paper's main
// experiments: AVX-256, 8-bit segments, m = n·√w.
func DefaultConfig() Config {
	return Config{Width: simd.WidthAVX, SegBits: 8, Scale: 0, Seed: 0}
}

// normalize validates cfg and fills defaults.
func (c Config) normalize() (Config, error) {
	if c.Width == 0 {
		c.Width = simd.WidthAVX
	}
	if !c.Width.Valid() {
		return c, fmt.Errorf("core: invalid width %d", c.Width)
	}
	if c.SegBits == 0 {
		c.SegBits = 8
	}
	ok := false
	for _, s := range bitmap.SupportedSegBits {
		if s == c.SegBits {
			ok = true
		}
	}
	if !ok {
		return c, fmt.Errorf("core: unsupported segment size %d", c.SegBits)
	}
	if c.Scale == 0 {
		c.Scale = math.Sqrt(float64(c.Width.Bits()))
	}
	if c.Scale <= 0 || math.IsNaN(c.Scale) || math.IsInf(c.Scale, 0) {
		return c, fmt.Errorf("core: invalid bitmap scale %v", c.Scale)
	}
	if c.Rep >= numReps && c.Rep != RepAuto {
		return c, fmt.Errorf("core: invalid representation %d", c.Rep)
	}
	return c, nil
}

// Set is an immutable FESIA set in one of three physical representations:
// the paper's segmented bitmap (Fig. 1), a plain sorted array, or a dense
// bitmap over the value span. The representation is chosen at build time
// (Config.Rep); every intersection path accepts any representation pair.
// Sets are safe for concurrent reads.
//
// Field order is part of the batch engine's cost: everything a per-candidate
// step reads (bitmap words and shape, offsets, reordered, n, the
// representation and the compatibility key: hasher, cfg.Width,
// cfg.SegBits) sits in the header's first 128 bytes, two cache lines, and
// the bitmap is embedded by value so reaching its words costs no further
// dependent load. TestSetHeaderLayout pins this.
type Set struct {
	// Segmented-bitmap state (RepSegmented; zero otherwise). reordered
	// doubles as the sorted element array of RepArray sets. Segment i holds
	// reordered[offsets[i]:offsets[i+1]].
	bm        bitmap.Bitmap
	offsets   []uint32 // nseg+1 prefix sums into reordered
	reordered []uint32 // the paper's ReorderedSet; ascending elements for RepArray
	n         int
	hasher    hashutil.Hasher
	rep       Rep
	cfg       Config

	maxSeg int // largest segment size, for scratch buffer sizing

	// Dense-bitmap state (RepDense): bit i of dense is set iff base+64*w+i
	// is an element. base is 64-aligned; the first and last words are
	// non-zero (canonical minimal cover).
	dense []uint64
	base  uint32
}

// NewSet builds a Set from elems. The input may be unsorted and contain
// duplicates; it is copied, sorted, and deduplicated. NewSet returns an
// error only for invalid configurations.
func NewSet(elems []uint32, cfg Config) (*Set, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	sorted := sortDedup(elems)
	switch chooseRep(sorted, cfg.Rep) {
	case RepArray:
		statsInc(stats.CtrBuildArray)
		return newArrayShell(cfg, sorted), nil
	case RepDense:
		base, nwords := denseLayout(sorted)
		s := newDenseShell(cfg, make([]uint64, nwords), base, len(sorted))
		fillDense(s.dense, base, sorted)
		statsInc(stats.CtrBuildDense)
		return s, nil
	}
	mBits := bitmapBits(len(sorted), cfg.Scale)
	nseg := int(mBits) / cfg.SegBits
	s := newShell(cfg, make([]uint64, mBits/64), mBits,
		make([]uint32, nseg+1), make([]uint32, len(sorted)))
	s.fill(sorted)
	statsInc(stats.CtrBuildSegmented)
	return s, nil
}

// NewSetBatch builds one Set per input list with all backing storage packed
// into a shared arena. It is kept as a compatibility alias for BuildSets.
func NewSetBatch(lists [][]uint32, cfg Config) ([]*Set, error) {
	return BuildSets(lists, cfg)
}

// BuildSets constructs a whole corpus of Sets into ONE contiguous backing
// allocation: for each set, its 64-bit word region (segmented-bitmap words
// or dense-bitmap words), then its uint32 region (offsets+reordered
// for segmented sets, the sorted element array for array sets) padded to
// word alignment, laid out back to back in input order. A workload that
// intersects one query against many small candidate sets — per-vertex
// neighbor lists in triangle counting, per-keyword posting lists in an
// inverted index — then walks one contiguous arena in candidate order
// instead of chasing four heap pointers per set. Each set's representation
// follows cfg.Rep (heuristic per set under RepAuto). The sets behave
// exactly like NewSet's; note that every set keeps the whole arena alive,
// so release all sets of a batch together.
func BuildSets(lists [][]uint32, cfg Config) ([]*Set, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	sortedLists := make([][]uint32, len(lists))
	reps := make([]Rep, len(lists))
	totalU64 := 0 // arena size in 64-bit words
	for i, l := range lists {
		sorted := sortDedup(l)
		sortedLists[i] = sorted
		reps[i] = chooseRep(sorted, cfg.Rep)
		totalU64 += arenaWords(reps[i], sorted, cfg)
	}
	if len(lists) == 0 {
		return []*Set{}, nil
	}
	arena := make([]uint64, totalU64)
	sets := make([]*Set, len(lists))
	at := 0
	for i, sorted := range sortedLists {
		switch reps[i] {
		case RepArray:
			var elems []uint32
			if len(sorted) > 0 {
				elems = unsafe.Slice((*uint32)(unsafe.Pointer(&arena[at])), len(sorted))
				at += (len(sorted) + 1) / 2
				copy(elems, sorted)
			}
			sets[i] = newArrayShell(cfg, elems)
			statsInc(stats.CtrBuildArray)
		case RepDense:
			base, nwords := denseLayout(sorted)
			words := arena[at : at+nwords : at+nwords]
			at += nwords
			fillDense(words, base, sorted)
			sets[i] = newDenseShell(cfg, words, base, len(sorted))
			statsInc(stats.CtrBuildDense)
		default:
			mBits := bitmapBits(len(sorted), cfg.Scale)
			nseg := int(mBits) / cfg.SegBits
			nwords := int(mBits) / 64
			words := arena[at : at+nwords : at+nwords]
			at += nwords
			u32Len := (nseg + 1) + len(sorted)
			u32 := unsafe.Slice((*uint32)(unsafe.Pointer(&arena[at])), u32Len)
			at += (u32Len + 1) / 2
			offsets := u32[: nseg+1 : nseg+1]
			reordered := u32[nseg+1 : u32Len : u32Len]
			s := newShell(cfg, words, mBits, offsets, reordered)
			s.fill(sorted)
			sets[i] = s
			statsInc(stats.CtrBuildSegmented)
		}
	}
	return sets, nil
}

// arenaWords returns one set's arena footprint in 64-bit words.
func arenaWords(rep Rep, sorted []uint32, cfg Config) int {
	switch rep {
	case RepArray:
		return (len(sorted) + 1) / 2
	case RepDense:
		_, nwords := denseLayout(sorted)
		return nwords
	}
	m := bitmapBits(len(sorted), cfg.Scale)
	nseg := int(m) / cfg.SegBits
	u32 := (nseg + 1) + len(sorted) // offsets + reordered
	return int(m)/64 + (u32+1)/2
}

// sortDedup copies, sorts and deduplicates the input.
func sortDedup(elems []uint32) []uint32 {
	sorted := append([]uint32(nil), elems...)
	slices.Sort(sorted)
	k := 0
	for i, v := range sorted {
		if i == 0 || v != sorted[k-1] {
			sorted[k] = v
			k++
		}
	}
	return sorted[:k]
}

// bitmapBits returns m = nextPow2(n·scale), at least one word.
func bitmapBits(n int, scale float64) uint64 {
	mBits := hashutil.NextPow2(uint64(math.Ceil(float64(n) * scale)))
	if mBits < 64 {
		mBits = 64
	}
	return mBits
}

// newShell assembles a Set around preallocated (possibly arena-backed)
// bitmap words of an mBits-bit bitmap and offsets/reordered storage.
// Callers must fill() it, or validateShell() loaded contents, before use.
func newShell(cfg Config, words []uint64, mBits uint64, offsets, reordered []uint32) *Set {
	return &Set{
		bm:        *bitmap.NewFromWords(words, mBits, cfg.SegBits),
		offsets:   offsets,
		reordered: reordered,
		n:         len(reordered),
		hasher:    hashutil.New(cfg.Seed),
		rep:       RepSegmented,
		cfg:       cfg,
	}
}

// newArrayShell assembles a RepArray Set around a sorted, duplicate-free
// (possibly arena-backed) element slice. elems is retained, not copied.
func newArrayShell(cfg Config, elems []uint32) *Set {
	return &Set{
		reordered: elems,
		n:         len(elems),
		hasher:    hashutil.New(cfg.Seed),
		rep:       RepArray,
		cfg:       cfg,
	}
}

// newDenseShell assembles a RepDense Set around a (possibly arena-backed)
// word slice covering [base, base+64*len(words)). words is retained.
func newDenseShell(cfg Config, words []uint64, base uint32, n int) *Set {
	return &Set{
		n:      n,
		hasher: hashutil.New(cfg.Seed),
		rep:    RepDense,
		cfg:    cfg,
		dense:  words,
		base:   base,
	}
}

// denseLayout computes the canonical dense-bitmap cover of a non-empty
// sorted element list: base is the smallest element rounded down to a word
// boundary, nwords the minimal word count reaching the largest element.
func denseLayout(sorted []uint32) (base uint32, nwords int) {
	base = sorted[0] &^ 63
	nwords = int(sorted[len(sorted)-1]-base)>>6 + 1
	return base, nwords
}

// fillDense sets one bit per element into a zeroed word slice laid out by
// denseLayout.
func fillDense(words []uint64, base uint32, sorted []uint32) {
	for _, v := range sorted {
		idx := v - base
		words[idx>>6] |= 1 << (idx & 63)
	}
}

// fill populates the bitmap, the offsets and the reordered array from a
// sorted duplicate-free element list, in the set's own storage only. Pass 1
// counts each segment's elements into offsets[seg+1] and a prefix sum turns
// the counts into segment starts. Pass 2 re-hashes every element (cheaper
// than keeping its segment in a side array) and places it at its segment's
// cursor offsets[seg]; that leaves offsets[i] at segment i+1's start, so a
// one-slot shift restores them.
func (s *Set) fill(sorted []uint32) {
	mBits := s.bm.Bits()
	segShift := uint(simd.Tzcnt32(uint32(s.bm.SegBits()))) // log2(segBits)
	offs := s.offsets
	for _, x := range sorted {
		pos := s.hasher.Pos(x, mBits)
		s.bm.Set(pos)
		offs[pos>>segShift+1]++
	}
	for i := 1; i < len(offs); i++ {
		s.maxSeg = max(s.maxSeg, int(offs[i]))
		offs[i] += offs[i-1]
	}
	// Filling in ascending input order keeps each segment's list sorted
	// ascending, as the paper requires.
	for _, x := range sorted {
		seg := s.hasher.Pos(x, mBits) >> segShift
		s.reordered[offs[seg]] = x
		offs[seg]++
	}
	copy(offs[1:], offs)
	offs[0] = 0
}

// MustNewSet is NewSet for known-good configurations; it panics on error.
func MustNewSet(elems []uint32, cfg Config) *Set {
	s, err := NewSet(elems, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of distinct elements.
func (s *Set) Len() int { return s.n }

// Config returns the normalized build configuration.
func (s *Set) Config() Config { return s.cfg }

// Rep returns the set's physical representation.
func (s *Set) Rep() Rep { return s.rep }

// BitmapBits returns the bitmap size in bits: m for segmented sets, the
// covered span for dense sets, 0 for array sets (no bitmap).
func (s *Set) BitmapBits() uint64 {
	switch s.rep {
	case RepArray:
		return 0
	case RepDense:
		return uint64(len(s.dense)) * 64
	}
	return s.bm.Bits()
}

// NumSegments returns m/s for segmented sets and 0 otherwise.
func (s *Set) NumSegments() int {
	if s.rep != RepSegmented {
		return 0
	}
	return s.bm.NumSegments()
}

// MaxSegmentLen returns the size of the largest segment list (0 for
// non-segmented sets).
func (s *Set) MaxSegmentLen() int { return s.maxSeg }

// segment returns the sorted element list of segment i.
func (s *Set) segment(i int) []uint32 {
	return s.reordered[s.offsets[i]:s.offsets[i+1]]
}

// Segment returns a copy-free view of segment i's sorted elements (segmented
// sets only; nil otherwise). The returned slice must not be modified.
func (s *Set) Segment(i int) []uint32 {
	if s.rep != RepSegmented {
		return nil
	}
	return s.segment(i)
}

// Contains reports whether x is in the set. Segmented sets use the
// single-element probe of the skewed-input strategy: test the bitmap bit,
// then search the one segment the bit selects. Array sets binary-search;
// dense sets test one bit.
func (s *Set) Contains(x uint32) bool {
	switch s.rep {
	case RepArray:
		_, found := slices.BinarySearch(s.reordered, x)
		return found
	case RepDense:
		if x < s.base {
			return false
		}
		idx := x - s.base
		if int(idx>>6) >= len(s.dense) {
			return false
		}
		return s.dense[idx>>6]&(1<<(idx&63)) != 0
	}
	pos := s.hasher.Pos(x, s.bm.Bits())
	if !s.bm.Test(pos) {
		return false
	}
	for _, v := range s.segment(s.bm.SegmentOf(pos)) {
		if v == x {
			return true
		}
		if v > x {
			return false
		}
	}
	return false
}

// Elements returns the set's distinct elements in ascending order (a fresh
// slice).
func (s *Set) Elements() []uint32 {
	switch s.rep {
	case RepArray:
		return append([]uint32(nil), s.reordered...)
	case RepDense:
		out := make([]uint32, 0, s.n)
		for w, word := range s.dense {
			for word != 0 {
				out = append(out, s.base+uint32(w)<<6+uint32(simd.Tzcnt64(word)))
				word &= word - 1
			}
		}
		return out
	}
	out := append([]uint32(nil), s.reordered...)
	slices.Sort(out)
	return out
}

// MemoryBytes reports the approximate heap footprint of the structure, for
// the dataset tables.
func (s *Set) MemoryBytes() int {
	switch s.rep {
	case RepArray:
		return len(s.reordered) * 4
	case RepDense:
		return len(s.dense) * 8
	}
	return len(s.bm.Words())*8 + len(s.offsets)*4 + len(s.reordered)*4
}

// Stats summarizes the physical layout of a Set. The segment-level fields
// describe the segmented-bitmap layout — the quantities the Section III-D
// analysis reasons about when choosing m and s — and are zero for the array
// and dense representations.
type Stats struct {
	Rep              Rep     // physical representation
	N                int     // distinct elements
	MemoryBytes      int     // approximate heap footprint
	BitmapBits       uint64  // m (segmented) / covered span (dense) / 0 (array)
	SegmentBits      int     // s
	Segments         int     // m/s
	NonEmptySegments int     // segments holding at least one element
	MaxSegmentLen    int     // largest segment list
	MeanOccupied     float64 // mean elements per non-empty segment
	BitDensity       float64 // set bits / bitmap bits (drives false positives)
	// SegmentSizeHist[k] counts segments with exactly k elements, for
	// k < len(SegmentSizeHist); the last bucket aggregates everything
	// at or above its index.
	SegmentSizeHist []int
}

// Stats computes layout statistics (O(m/s) for segmented sets).
func (s *Set) Stats() Stats {
	st := Stats{
		Rep:         s.rep,
		N:           s.n,
		MemoryBytes: s.MemoryBytes(),
		BitmapBits:  s.BitmapBits(),
	}
	switch s.rep {
	case RepArray:
		return st
	case RepDense:
		if len(s.dense) > 0 {
			st.BitDensity = float64(s.n) / float64(64*len(s.dense))
		}
		return st
	}
	st.SegmentBits = s.bm.SegBits()
	st.Segments = s.bm.NumSegments()
	const histBuckets = 9
	st.SegmentSizeHist = make([]int, histBuckets)
	for i := range st.Segments {
		k := int(s.offsets[i+1] - s.offsets[i])
		if k > 0 {
			st.NonEmptySegments++
			st.MaxSegmentLen = max(st.MaxSegmentLen, k)
		}
		st.SegmentSizeHist[min(k, histBuckets-1)]++
	}
	if st.NonEmptySegments > 0 {
		st.MeanOccupied = float64(s.n) / float64(st.NonEmptySegments)
	}
	st.BitDensity = float64(s.bm.PopCount()) / float64(s.bm.Bits())
	return st
}

// compatible panics unless two sets can be intersected against each other.
func compatible(a, b *Set) {
	if a.hasher != b.hasher { // hasher is exactly hashutil.New(cfg.Seed)
		panic("core: sets built with different hash seeds")
	}
	if a.cfg.SegBits != b.cfg.SegBits {
		panic("core: sets built with different segment sizes")
	}
	if a.cfg.Width != b.cfg.Width {
		panic("core: sets built with different kernel tables")
	}
}

// ordered returns the pair with the larger bitmap first, as
// bitmap.ForEachIntersectingSegment requires.
func ordered(a, b *Set) (large, small *Set) {
	if a.bm.Bits() >= b.bm.Bits() {
		return a, b
	}
	return b, a
}
