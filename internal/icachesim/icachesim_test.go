package icachesim

import (
	"math/rand"
	"testing"

	"fesia/internal/kernels/kernelgen"
)

func TestCacheBasics(t *testing.T) {
	c := New(1024, 64, 2) // 8 sets x 2 ways
	if !c.Access(0) {
		t.Error("cold access should miss")
	}
	if c.Access(0) {
		t.Error("repeat access should hit")
	}
	if c.Access(32) {
		t.Error("same-line access should hit")
	}
	if !c.Access(64) {
		t.Error("next line should miss")
	}
	if c.Accesses() != 4 || c.Misses() != 2 {
		t.Errorf("accesses=%d misses=%d", c.Accesses(), c.Misses())
	}
	c.Reset()
	if c.Accesses() != 0 || c.Misses() != 0 {
		t.Error("Reset should clear counters")
	}
	if !c.Access(0) {
		t.Error("post-reset access should miss")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(1024, 64, 2) // 8 sets; lines mapping to set 0: 0, 512, 1024, ...
	c.Access(0)           // set 0: [0]
	c.Access(512)         // set 0: [512, 0]
	if c.Access(0) {
		t.Error("line 0 should still be cached")
	}
	c.Access(1024) // evicts 512 (LRU)
	if c.Access(512) == false {
		t.Error("line 512 should have been evicted")
	}
	if c.Access(1024) {
		t.Error("line 1024 should be cached (0 was evicted by 512's refill)")
	}
}

func TestCacheGeometryPanics(t *testing.T) {
	for _, bad := range []func(){
		func() { New(0, 64, 8) },
		func() { New(1000, 64, 8) },
		func() { New(1024, 60, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestAccessRange(t *testing.T) {
	c := New(4096, 64, 8)
	if got := c.AccessRange(0, 1); got != 1 {
		t.Errorf("1-byte range misses = %d", got)
	}
	if got := c.AccessRange(0, 64); got != 0 {
		t.Errorf("cached line misses = %d", got)
	}
	if got := c.AccessRange(60, 8); got != 1 {
		t.Errorf("straddling range misses = %d (line 0 cached, line 1 cold)", got)
	}
	if got := c.AccessRange(0, 0); got != 0 {
		t.Errorf("empty range misses = %d", got)
	}
	c.Reset()
	if got := c.AccessRange(0, 257); got != 5 {
		t.Errorf("257-byte cold range misses = %d, want 5", got)
	}
}

func TestLayout(t *testing.T) {
	sse := kernelgen.NewModel(kernelgen.Specs()[0])
	l := NewLayout(sse)
	if l.NumKernels() == 0 || l.CodeBytes() == 0 {
		t.Fatal("empty layout")
	}
	if uint64(sse.CodeSize()) != l.CodeBytes() {
		t.Errorf("layout bytes %d != model code size %d", l.CodeBytes(), sse.CodeSize())
	}
	// Strided libraries collapse many pairs onto few kernels.
	lFull := NewLayout(kernelgen.NewModel(kernelgen.StrideSpec(1)))
	l4 := NewLayout(kernelgen.NewModel(kernelgen.StrideSpec(4)))
	l8 := NewLayout(kernelgen.NewModel(kernelgen.StrideSpec(8)))
	if !(lFull.NumKernels() > l4.NumKernels() && l4.NumKernels() > l8.NumKernels()) {
		t.Errorf("kernel counts not monotone: %d, %d, %d",
			lFull.NumKernels(), l4.NumKernels(), l8.NumKernels())
	}
}

// TestTable2Ordering reproduces the qualitative claim of Table II: on the
// same dispatch trace, a smaller sampled kernel library misses less in a
// 32 KiB L1i than the full kernel library.
func TestTable2Ordering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	trace := make([][2]int, 30000)
	for i := range trace {
		// Segment sizes follow the small-skewed distribution the bitmap
		// filter produces: mostly tiny, occasionally large.
		trace[i] = [2]int{rng.Intn(6) + rng.Intn(26)*(rng.Intn(8)/7) + 1, rng.Intn(6) + 1}
	}
	miss := func(stride int) int {
		c := New(32*1024, 64, 8)
		return NewLayout(kernelgen.NewModel(kernelgen.StrideSpec(stride))).Replay(c, trace)
	}
	full, s4, s8 := miss(1), miss(4), miss(8)
	if !(full > s4 && s4 > s8) {
		t.Errorf("misses not monotone: full=%d s4=%d s8=%d", full, s4, s8)
	}
}

func TestReplayOverCap(t *testing.T) {
	c := New(32*1024, 64, 8)
	l := NewLayout(kernelgen.NewModel(kernelgen.Specs()[0]))
	// Over-cap pairs go through the generic kernel at a stable address:
	// first touch misses, the rest hit.
	m := l.Replay(c, [][2]int{{100, 100}, {100, 100}, {50, 9}})
	if m == 0 || m > 3*3 {
		t.Errorf("generic replay misses = %d", m)
	}
}
