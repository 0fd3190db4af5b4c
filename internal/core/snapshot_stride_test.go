package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Snapshots written while the engine still had stride-sampled kernel
// libraries carry stride 4 or 8 in the header. Those streams must keep
// loading, and the loaded sets must answer exactly like stride-1 sets; any
// other stride marks a corrupt or foreign stream.

// v3SetHeader hand-encodes the post-magic v3 set header of s with the given
// stride: config, representation meta and sizes, little-endian.
func v3SetHeader(s *Set, stride uint32) []byte {
	var base uint32
	var mBits uint64
	switch s.rep {
	case RepSegmented:
		mBits = s.bm.Bits()
	case RepDense:
		base = s.base
		mBits = uint64(len(s.dense)) * 64
	}
	var b bytes.Buffer
	for _, v := range []interface{}{
		uint32(s.cfg.Width), uint32(s.cfg.SegBits), stride,
		math.Float64bits(s.cfg.Scale), s.cfg.Seed,
		uint32(s.rep), base, uint64(s.n), mBits,
	} {
		binary.Write(&b, binary.LittleEndian, v)
	}
	return b.Bytes()
}

// setStreamWithStride builds a v3 set stream for s whose header declares
// stride: the hand-built header and its CRC32C, followed by the payload
// sections of the stream WriteTo emits.
func setStreamWithStride(t *testing.T, s *Set, stride uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	hdr := slices.Concat(setMagicV3[:], v3SetHeader(s, stride))
	payload := buf.Bytes()[len(hdr)+4:]
	out := binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(hdr, castagnoli))
	return append(out, payload...)
}

// reloadWithStride round-trips s through a v3 set stream declaring stride.
func reloadWithStride(t *testing.T, s *Set, stride uint32) *Set {
	t.Helper()
	got, err := ReadSet(bytes.NewReader(setStreamWithStride(t, s, stride)))
	if err != nil {
		t.Fatalf("reloading with stride %d: %v", stride, err)
	}
	return got
}

// corpusStreamWithStride builds a v3 corpus stream for sets whose header
// declares stride: the hand-built corpus header, the per-set records and
// payloads WriteCorpus emits, and a CRC32C recomputed over the whole body.
func corpusStreamWithStride(t *testing.T, sets []*Set, stride uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteCorpus(&buf, sets); err != nil {
		t.Fatal(err)
	}
	cfg := sets[0].cfg
	var hdr bytes.Buffer
	hdr.Write(corpusMagicV3[:])
	for _, v := range []interface{}{
		uint32(cfg.Width), uint32(cfg.SegBits), stride,
		math.Float64bits(cfg.Scale), cfg.Seed, uint64(len(sets)),
	} {
		binary.Write(&hdr, binary.LittleEndian, v)
	}
	orig := buf.Bytes()
	body := append(hdr.Bytes(), orig[hdr.Len():len(orig)-4]...)
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

// checkAnswersLike requires got to intersect with every probe exactly as
// want does: same count and the same elements in the same order.
func checkAnswersLike(t *testing.T, label string, got, want *Set, probes []*Set) {
	t.Helper()
	e := NewExecutor()
	for i, p := range probes {
		if g, w := e.Count(got, p), e.Count(want, p); g != w {
			t.Fatalf("%s: probe %d count %d, stride-1 set gives %d", label, i, g, w)
		}
		gd := make([]uint32, min(got.Len(), p.Len()))
		wd := make([]uint32, min(want.Len(), p.Len()))
		gn := e.Intersect(gd, got, p)
		wn := e.Intersect(wd, want, p)
		if !slices.Equal(gd[:gn], wd[:wn]) {
			t.Fatalf("%s: probe %d elements %v, stride-1 set gives %v", label, i, gd[:gn], wd[:wn])
		}
	}
}

func TestSnapshotLegacyStride(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	cfg := Config{Width: 512, Scale: 4, Seed: 5, Rep: RepAuto}
	var sets, probes []*Set
	for _, n := range []int{0, 40, 3000, 9000} {
		sets = append(sets, MustNewSet(randSet(rng, n, 1<<24), cfg))
		probes = append(probes, MustNewSet(randSet(rng, n+100, 1<<24), cfg))
	}
	// A dense set, so every representation passes through the loaders.
	dense := make([]uint32, 5000)
	for i := range dense {
		dense[i] = uint32(2 * i)
	}
	sets = append(sets, MustNewSet(dense, cfg))
	reps := map[Rep]bool{}
	for _, s := range sets {
		reps[s.Rep()] = true
	}
	if len(reps) != int(numReps) {
		t.Fatalf("fixture covers representations %v, want all %d", reps, numReps)
	}

	for _, stride := range []uint32{1, 4, 8} {
		for i, s := range sets {
			got := reloadWithStride(t, s, stride)
			// Config.Rep is a build-time knob and is not serialized.
			gc, sc := got.Config(), s.Config()
			gc.Rep, sc.Rep = 0, 0
			if gc != sc || got.Rep() != s.Rep() {
				t.Fatalf("stride %d set %d: loaded config %+v rep %v, want %+v rep %v",
					stride, i, gc, got.Rep(), sc, s.Rep())
			}
			checkAnswersLike(t, "set", got, s, probes)
		}
		loaded, err := ReadCorpus(bytes.NewReader(corpusStreamWithStride(t, sets, stride)))
		if err != nil {
			t.Fatalf("stride %d corpus: %v", stride, err)
		}
		for i := range sets {
			checkAnswersLike(t, "corpus", loaded[i], sets[i], probes)
		}
	}

	if _, err := ReadSet(bytes.NewReader(setStreamWithStride(t, sets[2], 3))); err == nil {
		t.Error("set stream with stride 3 accepted")
	}
	if _, err := ReadCorpus(bytes.NewReader(corpusStreamWithStride(t, sets, 3))); err == nil {
		t.Error("corpus stream with stride 3 accepted")
	}
}

// TestSnapshotWritesStrideOne pins the writers: the stride field of both
// formats is 1.
func TestSnapshotWritesStrideOne(t *testing.T) {
	s := MustNewSet([]uint32{1, 5, 9}, DefaultConfig())
	var set, corpus bytes.Buffer
	if _, err := s.WriteTo(&set); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteCorpus(&corpus, []*Set{s}); err != nil {
		t.Fatal(err)
	}
	// Header layout after the 8-byte magic: width(4) segBits(4) stride(4).
	for name, b := range map[string][]byte{"set": set.Bytes(), "corpus": corpus.Bytes()} {
		if got := binary.LittleEndian.Uint32(b[16:]); got != 1 {
			t.Errorf("%s stream stride = %d, want 1", name, got)
		}
	}
}
