package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// layoutLists is the fixed-seed mixed-representation corpus of the layout
// pins: under RepAuto it yields empty and small array sets, dense sets and
// segmented sets of several bitmap sizes.
func layoutLists() [][]uint32 {
	rng := rand.New(rand.NewSource(1509))
	lists := [][]uint32{nil}
	for _, n := range []int{1, 7, 200, 256} {
		lists = append(lists, randSet(rng, n, 1<<20))
	}
	for _, n := range []int{300, 1000, 4000} {
		lo := uint32(rng.Intn(1 << 20))
		l := randSet(rng, n, uint32(n)*8)
		for i := range l {
			l[i] += lo
		}
		lists = append(lists, l)
	}
	for _, n := range []int{257, 1000, 3000, 9000} {
		lists = append(lists, randSet(rng, n, 1<<24))
	}
	return lists
}

func layoutConfig() Config {
	cfg := DefaultConfig()
	cfg.Rep = RepAuto
	cfg.Seed = 7
	return cfg
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSnapshotBytesPinned pins the on-disk formats: the v3 set stream of
// every set and the v3 corpus stream of a fixed-seed corpus mixing all three
// representations must hash to the digests recorded before the in-memory
// segmented layout dropped its derived Size array. A changed digest means
// the snapshot format moved, which needs a new magic, not a silent change.
func TestSnapshotBytesPinned(t *testing.T) {
	const (
		wantSets   = "e02365c25742cd24fda91762825a48969a13ea868c3f2afc16d2da724306b80c"
		wantCorpus = "6083a73c82ef7101c8a096556ed0e21b19ce803bad2ee9226a961a9aa43e6a10"
	)
	sets, err := BuildSets(layoutLists(), layoutConfig())
	if err != nil {
		t.Fatal(err)
	}
	var reps [numReps]int
	var setBytes bytes.Buffer
	for _, s := range sets {
		reps[s.rep]++
		if _, err := s.WriteTo(&setBytes); err != nil {
			t.Fatal(err)
		}
	}
	for r, c := range reps {
		if c == 0 {
			t.Fatalf("fixture has no %v set", Rep(r))
		}
	}
	var corpus bytes.Buffer
	if _, err := WriteCorpus(&corpus, sets); err != nil {
		t.Fatal(err)
	}
	if got := digest(setBytes.Bytes()); got != wantSets {
		t.Errorf("WriteTo stream digest %s, want %s", got, wantSets)
	}
	if got := digest(corpus.Bytes()); got != wantCorpus {
		t.Errorf("WriteCorpus stream digest %s, want %s", got, wantCorpus)
	}
}

// TestStatsPinned pins the layout statistics of a fixed-seed segmented set,
// built and reloaded. Segment sizes are derived from the offset array; the
// values were recorded when they were still read from a stored per-segment
// Size array.
func TestStatsPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	s := MustNewSet(randSet(rng, 10000, 1<<24), DefaultConfig())
	for _, set := range []*Set{s, roundTrip(t, s)} {
		st := set.Stats()
		if want := []int{24131, 7399, 1121, 112, 5, 0, 0, 0, 0}; !slices.Equal(st.SegmentSizeHist, want) {
			t.Errorf("SegmentSizeHist = %v, want %v", st.SegmentSizeHist, want)
		}
		if st.NonEmptySegments != 8637 || st.MaxSegmentLen != 4 || st.MeanOccupied != 1.1574620817413455 {
			t.Errorf("NonEmptySegments/MaxSegmentLen/MeanOccupied = %d/%d/%v, want 8637/4/1.1574620817413455",
				st.NonEmptySegments, st.MaxSegmentLen, st.MeanOccupied)
		}
		if set.MaxSegmentLen() != 4 {
			t.Errorf("MaxSegmentLen() = %d, want 4", set.MaxSegmentLen())
		}
	}
}

// addr returns a slice's base address (0 when empty).
func addr[T any](s []T) uintptr {
	if len(s) == 0 {
		return 0
	}
	return uintptr(unsafe.Pointer(&s[0]))
}

// checkFootprint checks a segmented set's accounting: MemoryBytes counts
// exactly the bitmap words, the nseg+1 offsets and the n elements.
func checkFootprint(t *testing.T, what string, s *Set) {
	t.Helper()
	if s.rep != RepSegmented {
		return
	}
	want := 8*len(s.bm.Words()) + 4*(s.NumSegments()+1) + 4*s.n
	if got := s.MemoryBytes(); got != want {
		t.Errorf("%s: MemoryBytes = %d, want 8·words + 4·(nseg+1) + 4·n = %d", what, got, want)
	}
}

// checkArena walks an arena-built corpus in order and checks that every set
// occupies exactly words(i) 64-bit words directly after its predecessor,
// with a segmented set laid out as words | offsets | reordered, so the arena
// holds exactly the sum of words(i).
func checkArena(t *testing.T, what string, sets []*Set, words func(i int) int) {
	t.Helper()
	var at uintptr
	for i, s := range sets {
		w := words(i)
		var start uintptr
		switch s.rep {
		case RepArray:
			start = addr(s.reordered)
		case RepDense:
			start = addr(s.dense)
		default:
			start = addr(s.bm.Words())
			offs := start + uintptr(8*len(s.bm.Words()))
			if addr(s.offsets) != offs {
				t.Fatalf("%s: set %d offsets do not follow its bitmap words", what, i)
			}
			if s.n > 0 && addr(s.reordered) != offs+uintptr(4*len(s.offsets)) {
				t.Fatalf("%s: set %d elements do not follow its offsets", what, i)
			}
			if u32 := len(s.offsets) + s.n; w != len(s.bm.Words())+(u32+1)/2 {
				t.Fatalf("%s: set %d arena words %d, layout needs %d", what, i, w, len(s.bm.Words())+(u32+1)/2)
			}
		}
		if w == 0 {
			continue
		}
		if at != 0 && start != at {
			t.Fatalf("%s: set %d starts %d bytes from the end of its predecessor", what, i, int(start)-int(at))
		}
		at = start + uintptr(8*w)
	}
}

// TestFootprintPinned pins the segmented layout's memory accounting and the
// arena layout for every construction path: NewSet, BuildSets, ReadSet and
// ReadCorpus.
func TestFootprintPinned(t *testing.T) {
	lists := layoutLists()
	cfg := layoutConfig()
	seg := cfg
	seg.Rep = RepSegmented
	for i, l := range lists {
		s := MustNewSet(l, seg)
		checkFootprint(t, "NewSet", s)
		checkFootprint(t, "ReadSet", roundTrip(t, s))
		if i == len(lists)-1 && s.MemoryBytes() != 199828 { // 8·2^12 words + 4·(2^15+1) offsets + 4·8996 elements
			t.Errorf("NewSet(%d elems): MemoryBytes = %d", len(l), s.MemoryBytes())
		}
	}
	for _, c := range []Config{cfg, seg} {
		sets, err := BuildSets(lists, c)
		if err != nil {
			t.Fatal(err)
		}
		c, err := c.normalize() // arenaWords takes the normalized scale
		if err != nil {
			t.Fatal(err)
		}
		sorted := make([][]uint32, len(lists))
		for i, l := range lists {
			sorted[i] = sortDedup(l)
			checkFootprint(t, "BuildSets", sets[i])
		}
		checkArena(t, "BuildSets", sets, func(i int) int { return arenaWords(sets[i].rep, sorted[i], c) })

		var buf bytes.Buffer
		if _, err := WriteCorpus(&buf, sets); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadCorpus(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range loaded {
			checkFootprint(t, "ReadCorpus", s)
			if s.MemoryBytes() != sets[i].MemoryBytes() {
				t.Errorf("ReadCorpus set %d: MemoryBytes %d, built %d", i, s.MemoryBytes(), sets[i].MemoryBytes())
			}
		}
		checkArena(t, "ReadCorpus", loaded, func(i int) int {
			s := loaded[i]
			m := corpusSetMeta{rep: s.rep, n: s.n, mBits: s.BitmapBits()}
			if got := int(m.arenaWords(c)); got != arenaWords(s.rep, sorted[i], c) {
				t.Fatalf("set %d: metaArenaWords %d, arenaWords %d", i, got, arenaWords(s.rep, sorted[i], c))
			}
			return int(m.arenaWords(c))
		})
	}
}

// TestBuildAllocs pins construction allocations: a segmented NewSet
// allocates its sorted copy, its header and its three arrays and nothing
// else; BuildSets allocates per set only the sorted copy and the header on
// top of a constant number of corpus-wide slices and the arena.
func TestBuildAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	elems := randSet(rng, 5000, 1<<24)
	if avg := testing.AllocsPerRun(20, func() { MustNewSet(elems, DefaultConfig()) }); avg > 5 {
		t.Errorf("NewSet: %v allocs, want ≤ 5 (sorted copy, header, words, offsets, elements)", avg)
	}
	lists := make([][]uint32, 300)
	for i := range lists {
		lists[i] = randSet(rng, 1+rng.Intn(40), 1<<16)
	}
	for _, n := range []int{30, len(lists)} {
		avg := testing.AllocsPerRun(10, func() {
			if _, err := BuildSets(lists[:n], DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		})
		if limit := float64(4 + 2*n); avg > limit {
			t.Errorf("BuildSets(%d sets): %v allocs, want ≤ %v (4 + sorted copy and header per set)", n, avg, limit)
		}
	}
}

// TestSetHeaderLayout pins the Set header's field order on 64-bit
// platforms: everything a batch candidate step reads lies in the first two
// cache lines, and the header size is a malloc size class whose objects
// start on a cache-line boundary.
func TestSetHeaderLayout(t *testing.T) {
	var s Set
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("header layout is pinned for 64-bit platforms")
	}
	hot := []struct {
		name       string
		off, bytes uintptr
	}{
		{"bm", unsafe.Offsetof(s.bm), unsafe.Sizeof(s.bm)},
		{"offsets", unsafe.Offsetof(s.offsets), unsafe.Sizeof(s.offsets)},
		{"reordered", unsafe.Offsetof(s.reordered), unsafe.Sizeof(s.reordered)},
		{"n", unsafe.Offsetof(s.n), unsafe.Sizeof(s.n)},
		{"hasher", unsafe.Offsetof(s.hasher), unsafe.Sizeof(s.hasher)},
		{"rep", unsafe.Offsetof(s.rep), unsafe.Sizeof(s.rep)},
		{"cfg.Width", unsafe.Offsetof(s.cfg) + unsafe.Offsetof(s.cfg.Width), unsafe.Sizeof(s.cfg.Width)},
		{"cfg.SegBits", unsafe.Offsetof(s.cfg) + unsafe.Offsetof(s.cfg.SegBits), unsafe.Sizeof(s.cfg.SegBits)},
	}
	for _, f := range hot {
		if f.off+f.bytes > 128 {
			t.Errorf("Set.%s ends at byte %d, outside the first two cache lines", f.name, f.off+f.bytes)
		}
	}
	if size := unsafe.Sizeof(s); size != 192 {
		t.Errorf("Set header is %d bytes, want 192 (a cache-line-aligned size class)", size)
	}
}
