package experiments

import (
	"fmt"
	"math/rand"

	"fesia/internal/core"
	"fesia/internal/datasets"
	"fesia/internal/kernels"
	"fesia/internal/simd"
)

// KernelSpeedups reproduces Figures 4-6 on real vector hardware: for every
// segment size pair up to 2V-1 of width w, the speedup of the hand-written
// size-specialized kernel (simd.CountSmall, the broadcast/compare stream of
// Fig. 2 in assembly) over the portable segment kernel every query runs
// (kernels.Count). Rows are Sa, columns Sb. The AVX512 figure runs on the
// AVX-512 tier; the SSE and AVX figures run on the AVX2 tier, the narrowest
// register with an assembly kernel. On a host without the tier, CountSmall
// takes its pure-Go fallback and the notes say which tier ran.
func KernelSpeedups(w simd.Width, figID string) *Table {
	capSize := 2*w.Lanes() - 1
	prevAsm := simd.SetAsmEnabled(true)
	prevAvx512 := simd.SetAvx512Enabled(w == simd.WidthAVX512)
	defer func() {
		simd.SetAvx512Enabled(prevAvx512)
		simd.SetAsmEnabled(prevAsm)
	}()
	rng := rand.New(rand.NewSource(77))

	const batch = 32
	t := &Table{
		ID:    figID,
		Title: fmt.Sprintf("Speedups of asm CountSmall vs the portable segment kernel, %s sizes (rows Sa, cols Sb)", w),
		Notes: []string{fmt.Sprintf("CountSmall ran on the %s tier", simd.Backend())},
	}
	t.Header = append(t.Header, "Sa\\Sb")
	for sb := 1; sb <= capSize; sb++ {
		t.Header = append(t.Header, fmt.Sprintf("%d", sb))
	}
	for sa := 1; sa <= capSize; sa++ {
		row := []string{fmt.Sprintf("%d", sa)}
		for sb := 1; sb <= capSize; sb++ {
			as := make([][]uint32, batch)
			bs := make([][]uint32, batch)
			for i := range as {
				as[i], bs[i] = segmentPair(rng, sa, sb)
			}
			portable := func() int {
				n := 0
				for i := range as {
					n += kernels.Count(as[i], bs[i])
				}
				return n
			}
			asm := func() int {
				n := 0
				for i := range as {
					n += simd.CountSmall(as[i], bs[i])
				}
				return n
			}
			if portable() != asm() {
				panic(fmt.Sprintf("experiments: CountSmall and kernels.Count disagree at %dx%d", sa, sb))
			}
			row = append(row, speedup(timeOp(portable), timeOp(asm)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// segmentPair builds one pair of sorted distinct segment lists with some
// overlap, the inputs a surviving segment pair would hand a kernel.
func segmentPair(rng *rand.Rand, sa, sb int) (a, b []uint32) {
	universe := uint32(4 * (sa + sb + 2))
	return datasets.GenPair(rng, sa, sb, rng.Intn(min(sa, sb)+1), universe)
}

// VaryInputSize reproduces Fig. 7: intersection time as the input size grows
// (equal-size inputs, selectivity 1%). fesiaWidths selects which FESIA
// variants run — {SSE, AVX} mirrors the Haswell platform (Fig. 7a),
// {SSE, AVX, AVX512} the Skylake one (Fig. 7b). The baseline methods run at
// the widest ISA in fesiaWidths.
func VaryInputSize(figID string, sizes []int, fesiaWidths []simd.Width) *Table {
	rng := rand.New(rand.NewSource(7))
	widest := fesiaWidths[len(fesiaWidths)-1]

	methods := BaselineMethods(widest)
	for _, w := range fesiaWidths {
		methods = append(methods, FESIAMethod("FESIA"+wTag(w), core.Config{Width: w}))
	}

	t := &Table{
		ID:     figID,
		Title:  "Intersection time (ms) vs input size, selectivity 1%",
		Header: append([]string{"Size"}, methodNames(methods)...),
		Notes:  []string{"paper reports million cycles; this reproduction reports milliseconds"},
	}
	for _, n := range sizes {
		a, b := datasets.GenPairSelectivity(rng, n, n, 0.01, uint32(16*n))
		row := []string{fmt.Sprintf("%d", n)}
		for _, m := range methods {
			op := m.Prepare(a, b)
			row = append(row, ms(timeOp(op)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// SelectivitySweep reproduces Figures 8-9: speedup over Scalar as the
// selectivity r/n varies at fixed input size.
func SelectivitySweep(figID string, n int, sels []float64, fesiaWidths []simd.Width) *Table {
	rng := rand.New(rand.NewSource(8))
	widest := fesiaWidths[len(fesiaWidths)-1]
	methods := BaselineMethods(widest)[1:] // Scalar is the baseline itself
	for _, w := range fesiaWidths {
		methods = append(methods, FESIAMethod("FESIA"+wTag(w), core.Config{Width: w}))
	}
	scalar := ScalarMethod()

	t := &Table{
		ID:     figID,
		Title:  fmt.Sprintf("Speedup over Scalar vs selectivity (n = %d)", n),
		Header: append([]string{"Selectivity"}, methodNames(methods)...),
	}
	for _, sel := range sels {
		a, b := datasets.GenPairSelectivity(rng, n, n, sel, uint32(16*n))
		base := timeOp(scalar.Prepare(a, b))
		row := []string{fmt.Sprintf("%.2f", sel)}
		for _, m := range methods {
			row = append(row, speedup(base, timeOp(m.Prepare(a, b))))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// ThreeWayDensity reproduces Fig. 10: 3-way intersection speedup over the
// scalar method as set density varies.
func ThreeWayDensity(figID string, n int, densities []float64, w simd.Width) *Table {
	rng := rand.New(rand.NewSource(10))
	kmethods := BaselineKMethods(w)[1:]
	kmethods = append(kmethods, FESIAKMethod("FESIA", core.Config{Width: w}))
	scalar := BaselineKMethods(w)[0]

	t := &Table{
		ID:     figID,
		Title:  fmt.Sprintf("3-way intersection speedup over Scalar vs density (n = %d)", n),
		Header: append([]string{"Density"}, kMethodNames(kmethods)...),
	}
	for _, d := range densities {
		sets := datasets.GenGroup(rng, 3, n, d)
		base := timeOp(scalar.Prepare(sets))
		row := []string{fmt.Sprintf("%.2f", d)}
		for _, m := range kmethods {
			row = append(row, speedup(base, timeOp(m.Prepare(sets))))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// SkewSweep reproduces Fig. 11: speedup over Scalar as the size ratio
// n1/n2 varies, with both FESIA strategies reported so the crossover at
// skew ≈ 1/4 is visible.
func SkewSweep(figID string, n2 int, skews []float64, w simd.Width, selectivity float64) *Table {
	rng := rand.New(rand.NewSource(11))
	cfg := core.Config{Width: w}
	methods := BaselineMethods(w)[1:]
	methods = append(methods,
		FESIAMethod("FESIAmerge", cfg),
		FESIAHashMethod("FESIAhash", cfg))
	scalar := ScalarMethod()

	t := &Table{
		ID:     figID,
		Title:  fmt.Sprintf("Speedup over Scalar vs skew n1/n2 (n2 = %d, selectivity %.2f)", n2, selectivity),
		Header: append([]string{"Skew"}, methodNames(methods)...),
	}
	for _, sk := range skews {
		n1 := int(float64(n2) * sk)
		if n1 < 1 {
			n1 = 1
		}
		r := int(selectivity * float64(n1))
		a, b := datasets.GenPair(rng, n1, n2, r, uint32(16*n2))
		base := timeOp(scalar.Prepare(a, b))
		row := []string{fmt.Sprintf("%d/%d", n1, n2)}
		for _, m := range methods {
			row = append(row, speedup(base, timeOp(m.Prepare(a, b))))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func wTag(w simd.Width) string {
	switch w {
	case simd.WidthSSE:
		return "sse"
	case simd.WidthAVX:
		return "avx"
	default:
		return "avx512"
	}
}

func methodNames(ms []PairMethod) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

func kMethodNames(ms []KMethod) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}
