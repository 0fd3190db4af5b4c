package kernelgen

import "testing"

func TestSpecs(t *testing.T) {
	specs := Specs()
	if len(specs) != 5 {
		t.Fatalf("Specs() = %d entries, want 5", len(specs))
	}
	for _, s := range specs {
		if s.Cap < 2*s.ISA.V-1 {
			t.Errorf("%s stride %d: cap %d below 2V-1=%d", s.ISA.Tag, s.Stride, s.Cap, 2*s.ISA.V-1)
		}
	}
}

// TestStrideSampling checks the sampled size ladders of Section VI.
func TestStrideSampling(t *testing.T) {
	sizes := nominalSizes(StrideSpec(4))
	want := []int{0, 4, 8, 12, 16, 20, 24, 28, 32}
	if len(sizes) != len(want) {
		t.Fatalf("stride-4 sizes = %v", sizes)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("stride-4 sizes = %v, want %v", sizes, want)
		}
	}
	sizes8 := nominalSizes(StrideSpec(8))
	if len(sizes8) != 5 || sizes8[4] != 32 {
		t.Fatalf("stride-8 sizes = %v", sizes8)
	}
	if exact := nominalSizes(Specs()[0]); len(exact) != 8 || exact[7] != 7 {
		t.Fatalf("SSE exact sizes = %v, want 0..7", exact)
	}
}

// TestKernelShapeSelection pins the kernel shapes against the paper's
// Section V-C structure, and each shape's cost against its operations:
// small-by-small kernels unroll all pairs; small-by-large kernels hoist the
// smaller side and stream the larger one (Fig. 3 left); 6x6 at SSE width
// decomposes into 4x4 plus a runtime-selected remainder (Fig. 3 right);
// swapped sizes delegate to their mirror kernel; strided kernels guard one
// position per nominal element of the larger side.
func TestKernelShapeSelection(t *testing.T) {
	sse := NewModel(Specs()[0])
	cases := []struct {
		sa, sb int
		shape  shape
		bytes  int
	}{
		{0, 0, shapeZero, costZeroKernel},
		{0, 3, shapeZero, 0},
		{7, 2, shapeAlias, 2 * costAliasThunk},
		// 2 broadcasts, then per b element a 2-compare chain; the
		// materializing variant adds a branch and a store per element.
		{2, 3, shapeSmall, 2*(costPrologue+2*costBroadcast+costInc+3*(2*costCmp+costOr)) +
			3*(2*costInc+costScalarCmp)},
		{2, 7, shapeSmallLoop, 2*(costPrologue+2*costBroadcast+costInc+costLoop+2*costCmp+costOr) +
			2*costInc + costScalarCmp},
		{6, 6, shapeLargeLarge, 2 * (costPrologue + 3*costCall + costScalarCmp)},
	}
	for _, c := range cases {
		if got := sse.shape(c.sa, c.sb); got != c.shape {
			t.Errorf("SSE %dx%d shape = %d, want %d", c.sa, c.sb, got, c.shape)
		}
		if got, _, _ := sse.KernelBytes(c.sa, c.sb); got != c.bytes {
			t.Errorf("SSE %dx%d bytes = %d, want %d", c.sa, c.sb, got, c.bytes)
		}
	}
	s4 := NewModel(StrideSpec(4))
	if got := s4.shape(8, 16); got != shapeStrided {
		t.Errorf("stride-4 8x16 shape = %d, want strided", got)
	}
	if got, _, _ := s4.KernelBytes(8, 16); got != 2*(costPrologue+2*costInc+16*(costScalarCmp+costCall+costInc)) {
		t.Errorf("stride-4 8x16 bytes = %d: want 16 guarded positions per variant", got)
	}
}

// TestKernelBytes checks the Listing 2 control code and the stride rounding.
func TestKernelBytes(t *testing.T) {
	sse := NewModel(Specs()[0])
	b, ctrl, ok := sse.KernelBytes(2, 3)
	if !ok || b <= 0 {
		t.Fatalf("KernelBytes(2,3) = %d, ok=%v", b, ok)
	}
	if ctrl != 2<<3|3 {
		t.Errorf("ctrl = %d, want %d (Listing 2 encoding)", ctrl, 2<<3|3)
	}
	if _, _, ok := sse.KernelBytes(8, 3); ok {
		t.Error("KernelBytes beyond cap should report ok=false")
	}
	// Strided libraries round up: sizes 1..4 share the stride-4 nominal kernel.
	s4 := NewModel(StrideSpec(4))
	b1, c1, _ := s4.KernelBytes(1, 1)
	b4, c4, _ := s4.KernelBytes(4, 4)
	if c1 != c4 || b1 != b4 {
		t.Errorf("stride-4 rounding: (1,1)->ctrl %d bytes %d, (4,4)->ctrl %d bytes %d", c1, b1, c4, b4)
	}
}

// TestModelMonotone: sampling shrinks the library, by about the ~90% and
// ~98% Table II reports for strides 4 and 8.
func TestModelMonotone(t *testing.T) {
	full, s4, s8 := NewModel(StrideSpec(1)), NewModel(StrideSpec(4)), NewModel(StrideSpec(8))
	if !(full.CodeSize() > s4.CodeSize() && s4.CodeSize() > s8.CodeSize()) {
		t.Errorf("code sizes not monotone: full=%d s4=%d s8=%d",
			full.CodeSize(), s4.CodeSize(), s8.CodeSize())
	}
	if !(full.NumKernels() > s4.NumKernels() && s4.NumKernels() > s8.NumKernels()) {
		t.Errorf("kernel counts not monotone: full=%d s4=%d s8=%d",
			full.NumKernels(), s4.NumKernels(), s8.NumKernels())
	}
	r4 := 1 - float64(s4.CodeSize())/float64(full.CodeSize())
	r8 := 1 - float64(s8.CodeSize())/float64(full.CodeSize())
	if r4 < 0.80 || r8 < 0.95 {
		t.Errorf("stride reductions too small: r4=%.2f r8=%.2f", r4, r8)
	}
	// Table II's code-size column, as printed in experiments_full.txt.
	for _, c := range []struct{ stride, bytes int }{{1, 309892}, {4, 27572}, {8, 8060}} {
		if got := NewModel(StrideSpec(c.stride)).CodeSize(); got != c.bytes {
			t.Errorf("stride-%d code size = %d, want %d", c.stride, got, c.bytes)
		}
	}
}

func TestStrideSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("StrideSpec(3) should panic")
		}
	}()
	StrideSpec(3)
}
