package simd

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWidthLanes(t *testing.T) {
	cases := []struct {
		w     Width
		lanes int
		name  string
	}{
		{WidthSSE, 4, "SSE"},
		{WidthAVX, 8, "AVX"},
		{WidthAVX512, 16, "AVX512"},
	}
	for _, c := range cases {
		if got := c.w.Lanes(); got != c.lanes {
			t.Errorf("%v.Lanes() = %d, want %d", c.w, got, c.lanes)
		}
		if got := c.w.String(); got != c.name {
			t.Errorf("Width(%d).String() = %q, want %q", c.w, got, c.name)
		}
		if !c.w.Valid() {
			t.Errorf("%v.Valid() = false, want true", c.w)
		}
	}
	if Width(64).Valid() {
		t.Error("Width(64).Valid() = true, want false")
	}
	if got := Width(64).String(); got != "Width?" {
		t.Errorf("Width(64).String() = %q", got)
	}
}

func TestScalarBitUtils(t *testing.T) {
	if Tzcnt32(0) != 32 || Tzcnt32(8) != 3 || Tzcnt32(1) != 0 {
		t.Error("Tzcnt32 wrong")
	}
	if Tzcnt64(0) != 64 || Tzcnt64(1<<40) != 40 {
		t.Error("Tzcnt64 wrong")
	}
	if Popcount32(0xFF) != 8 || Popcount64(^uint64(0)) != 64 {
		t.Error("Popcount wrong")
	}
	if ClearLowestSet(0b1100) != 0b1000 {
		t.Error("ClearLowestSet wrong")
	}
	if ClearLowestSet64(0b1010) != 0b1000 {
		t.Error("ClearLowestSet64 wrong")
	}
}

func TestAndWords(t *testing.T) {
	a := []uint64{0xFF, 0, 0xF0F0, 1, 2, 3, 4, 5, 6, 7}
	b := []uint64{0x0F, 7, 0x00F0, 0, 2, 1, 4, 4, 6, 0}
	dst := make([]uint64, len(a))
	nz := AndWords(dst, a, b)
	want := []uint64{0x0F, 0, 0x00F0, 0, 2, 1, 4, 4, 6, 0}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("dst[%d] = %x, want %x", i, dst[i], want[i])
		}
	}
	if nz != 7 {
		t.Errorf("nonZero = %d, want 7", nz)
	}
}

func TestAndWordsShort(t *testing.T) {
	// Lengths below the unroll width exercise the scalar tail.
	a := []uint64{0b1010, 0b0110, 0}
	b := []uint64{0b0010, 0b1001, 5}
	dst := make([]uint64, 3)
	nz := AndWords(dst, a, b)
	if dst[0] != 0b0010 || dst[1] != 0 || dst[2] != 0 {
		t.Errorf("dst = %v", dst)
	}
	if nz != 1 {
		t.Errorf("nonZero = %d, want 1", nz)
	}
}

func TestAndWordsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	AndWords(make([]uint64, 2), make([]uint64, 3), make([]uint64, 3))
}

func TestAndWordsWrap(t *testing.T) {
	a := []uint64{0xFF, 0xF0, 0x0F, 0xAA}
	b := []uint64{0x3C, 0xFF}
	dst := make([]uint64, 4)
	nz := AndWordsWrap(dst, a, b)
	want := []uint64{0xFF & 0x3C, 0xF0 & 0xFF, 0x0F & 0x3C, 0xAA & 0xFF}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("dst[%d] = %x, want %x", i, dst[i], want[i])
		}
	}
	if nz != 4 {
		t.Errorf("nonZero = %d, want 4", nz)
	}
}

func TestAndWordsWrapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic when len(b) does not divide len(a)")
		}
	}()
	AndWordsWrap(make([]uint64, 4), make([]uint64, 4), make([]uint64, 3))
}

func TestAndWordsK(t *testing.T) {
	a := []uint64{0xFF, 0xF0}
	b := []uint64{0x0F | 0x30, 0xF0}
	c := []uint64{0x33, 0x10}
	dst := make([]uint64, 2)
	nz := AndWordsK(dst, a, b, c)
	if dst[0] != 0xFF&(0x0F|0x30)&0x33 {
		t.Errorf("dst[0] = %x", dst[0])
	}
	if dst[1] != 0x10 {
		t.Errorf("dst[1] = %x", dst[1])
	}
	if nz != 2 {
		t.Errorf("nonZero = %d", nz)
	}
	// Single-bitmap degenerate case is a copy.
	nz = AndWordsK(dst, a)
	if dst[0] != 0xFF || dst[1] != 0xF0 || nz != 2 {
		t.Errorf("single AndWordsK = %v nz=%d", dst, nz)
	}
}

// Property: AndWords agrees with a naive word loop for random inputs,
// including lengths that exercise both the unrolled body and the tail.
func TestAndWordsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		a := make([]uint64, n)
		b := make([]uint64, n)
		for i := range a {
			// Sparse words so zero results occur often.
			a[i] = rng.Uint64() & rng.Uint64() & rng.Uint64()
			b[i] = rng.Uint64() & rng.Uint64() & rng.Uint64()
		}
		dst := make([]uint64, n)
		nz := AndWords(dst, a, b)
		wantNZ := 0
		for i := range a {
			w := a[i] & b[i]
			if dst[i] != w {
				t.Fatalf("trial %d: dst[%d] = %x, want %x", trial, i, dst[i], w)
			}
			if w != 0 {
				wantNZ++
			}
		}
		if nz != wantNZ {
			t.Fatalf("trial %d: nonZero = %d, want %d", trial, nz, wantNZ)
		}
	}
}

func TestSegmentMask8(t *testing.T) {
	cases := []struct {
		w    uint64
		want uint32
	}{
		{0, 0},
		{1, 1},
		{0x80, 1},
		{0x100, 2},
		{0xFF00000000000000, 0x80},
		{0x0101010101010101, 0xFF},
		{0x00FF00FF00FF00FF, 0x55},
		{0xFF00FF00FF00FF00, 0xAA},
	}
	for _, c := range cases {
		if got := SegmentMask8(c.w); got != c.want {
			t.Errorf("SegmentMask8(%#x) = %#x, want %#x", c.w, got, c.want)
		}
	}
}

// Property: SegmentMask8 bit i is set iff byte i is non-zero.
func TestSegmentMask8Property(t *testing.T) {
	f := func(w uint64) bool {
		m := SegmentMask8(w)
		for i := 0; i < 8; i++ {
			byteNZ := (w>>(8*uint(i)))&0xFF != 0
			bitSet := m&(1<<uint(i)) != 0
			if byteNZ != bitSet {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSegmentMask16(t *testing.T) {
	f := func(w uint64) bool {
		m := SegmentMask16(w)
		for i := 0; i < 4; i++ {
			nz := (w>>(16*uint(i)))&0xFFFF != 0
			if nz != (m&(1<<uint(i)) != 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSegmentMask32(t *testing.T) {
	f := func(w uint64) bool {
		m := SegmentMask32(w)
		lo := w&0xFFFFFFFF != 0
		hi := w>>32 != 0
		return (m&1 != 0) == lo && (m&2 != 0) == hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
