// Package kernelgen models the code size of FESIA's specialized kernel
// library (Section V and Table II of the paper).
//
// The paper compiles, ahead of time, one intersection kernel per segment
// size pair (0-by-0 up to cap-by-cap) and per ISA, and dispatches through a
// jump table indexed by the control code of Listing 2:
//
//	ctrl = Sa << bits | Sb
//
// The query engine does not use such a library (internal/kernels runs one
// portable kernel), but Table II's comparison of kernel libraries does: it
// needs each library's kernel count, its code size and the address range
// every dispatch touches. Model provides those without emitting any code.
//
// Each kernel is costed by its shape, following Section V-C:
//
//   - small-by-small (Sa ≤ Sb ≤ V): the Sa elements of the smaller set are
//     loaded into registers and every element of the larger set is compared
//     against all of them, fully unrolled — one branchless comparison each.
//   - small-by-large (Sa ≤ V < Sb): the same registers, with the larger set
//     streamed through a loop (Fig. 3 left).
//   - large-by-large (V < Sa ≤ Sb): a V-by-V kernel plus a runtime-selected
//     remainder kernel (Fig. 3 right), i.e. three calls and one compare.
//   - Sa > Sb: a jump to the swapped kernel; a zero side: the shared empty
//     kernel.
//
// For wide vectors the paper samples kernel sizes at a stride (Section VI)
// and rounds segment sizes up to the next sampled size. A sampled kernel
// cannot assume exact sizes: it has one guarded position per nominal
// element of the larger side and a runtime loop over the smaller side.
//
// Byte weights per operation follow typical x86-64 encodings; only their
// monotonicity across library configurations matters for Table II.
package kernelgen

import "fmt"

// ISA describes one vector instruction set by its register lanes.
type ISA struct {
	Tag string // short name, e.g. "SSE"
	V   int    // 32-bit lanes per register
}

// The ISAs of the paper's experiments.
var (
	SSE    = ISA{Tag: "SSE", V: 4}
	AVX    = ISA{Tag: "AVX", V: 8}
	AVX512 = ISA{Tag: "A512", V: 16}
)

// Spec describes one kernel library.
type Spec struct {
	ISA    ISA
	Cap    int // largest true segment size handled (inclusive)
	Stride int // 1 = exact kernels for every size; >1 = sampled sizes
}

// Specs returns the five libraries of the paper's evaluation: exact
// libraries for SSE/AVX/AVX512 (caps 7/15/31 — twice the vector length minus
// one, as in Figures 4-6) and the stride-4 and stride-8 sampled AVX512
// libraries of Table II.
func Specs() []Spec {
	return []Spec{
		{ISA: SSE, Cap: 7, Stride: 1},
		{ISA: AVX, Cap: 15, Stride: 1},
		{ISA: AVX512, Cap: 31, Stride: 1},
		{ISA: AVX512, Cap: 31, Stride: 4},
		{ISA: AVX512, Cap: 31, Stride: 8},
	}
}

// StrideSpec returns the AVX512 library with the given sampling stride
// (1, 4 or 8): the three rows of Table II.
func StrideSpec(stride int) Spec {
	switch stride {
	case 1, 4, 8:
		return Spec{ISA: AVX512, Cap: 31, Stride: stride}
	}
	panic(fmt.Sprintf("kernelgen: no AVX512 library with stride %d", stride))
}

// Modelled byte weights of each operation a kernel performs.
const (
	costBroadcast  = 6 // load an element into its dedicated register
	costCmp        = 6 // one branchless element comparison
	costOr         = 4
	costScalarCmp  = 6 // compare + conditional branch
	costCall       = 7
	costPrologue   = 8
	costInc        = 3
	costLoop       = 8 // loop counter + backward branch
	costAliasThunk = 8 // swap-delegating jump stub
	costZeroKernel = 4
)

// shape is the structural form of one kernel of the library.
type shape int

// Kernel shapes, see the package comment.
const (
	shapeZero       shape = iota // a zero side: the shared empty kernel
	shapeAlias                   // Sa > Sb: jump to the swapped kernel
	shapeSmall                   // Sa ≤ Sb ≤ V, fully unrolled
	shapeSmallLoop               // Sa ≤ V < Sb, larger side streamed
	shapeLargeLarge              // V < Sa ≤ Sb, V-by-V plus remainder
	shapeStrided                 // sampled sizes, guarded positions
)

// Model is the modelled kernel library of one Spec: the nominal sizes it
// has kernels for, and each kernel's shape and code bytes (the counting and
// the materializing variant together).
type Model struct {
	spec    Spec
	bits    uint    // control-code shift: bits to hold the largest nominal size
	round   []uint8 // round[s] = nominal kernel size for true size s
	nominal []int
}

// NewModel builds the library model of s.
func NewModel(s Spec) *Model {
	if s.Stride < 1 {
		panic(fmt.Sprintf("kernelgen: invalid stride %d", s.Stride))
	}
	m := &Model{spec: s, nominal: nominalSizes(s), round: make([]uint8, s.Cap+1)}
	for 1<<m.bits <= m.nominal[len(m.nominal)-1] {
		m.bits++
	}
	for sz := range m.round {
		m.round[sz] = uint8((sz + s.Stride - 1) / s.Stride * s.Stride)
	}
	return m
}

// nominalSizes lists the sizes the library has kernels for: every size up to
// Cap, or 0 and the multiples of Stride up to the first one ≥ Cap.
func nominalSizes(s Spec) []int {
	sizes := []int{0}
	for n := s.Stride; n < s.Cap+s.Stride; n += s.Stride {
		sizes = append(sizes, n)
	}
	return sizes
}

// Cap returns the largest true segment size the library handles.
func (m *Model) Cap() int { return m.spec.Cap }

// shape returns the structural form of the kernel for nominal sizes
// (sa, sb).
func (m *Model) shape(sa, sb int) shape {
	v := m.spec.ISA.V
	switch {
	case sa == 0 || sb == 0:
		return shapeZero
	case sa > sb:
		return shapeAlias
	case m.spec.Stride > 1:
		return shapeStrided
	case sb <= v:
		return shapeSmall
	case sa <= v:
		return shapeSmallLoop
	default:
		return shapeLargeLarge
	}
}

// kernelBytes returns the modelled bytes of the kernel for nominal sizes
// (sa, sb): both variants' prologue and body for a real kernel, one stub
// each for an alias.
func (m *Model) kernelBytes(sa, sb int) int {
	eqChain := sa*costCmp + (sa-1)*costOr // one register-side comparison chain
	// One matched element: the counting variant adds, the materializing one
	// branches and stores.
	perHit := 2*costInc + costScalarCmp
	switch m.shape(sa, sb) {
	case shapeZero:
		if sa == 0 && sb == 0 {
			return costZeroKernel
		}
		return 0
	case shapeAlias:
		return 2 * costAliasThunk
	case shapeSmall:
		return 2*(costPrologue+sa*costBroadcast+costInc+sb*eqChain) + sb*perHit
	case shapeSmallLoop:
		return 2*(costPrologue+sa*costBroadcast+costInc+costLoop+eqChain) + perHit
	case shapeLargeLarge:
		return 2 * (costPrologue + 3*costCall + costScalarCmp)
	default: // shapeStrided
		return 2 * (costPrologue + 2*costInc + sb*(costScalarCmp+costCall+costInc))
	}
}

// KernelBytes returns the modelled code size of the kernel that true sizes
// (sa, sb) dispatch to, and its control code. It reports ok=false when the
// pair falls through to the generic kernel.
func (m *Model) KernelBytes(sa, sb int) (bytes, ctrl int, ok bool) {
	if sa > m.spec.Cap || sb > m.spec.Cap {
		return 0, 0, false
	}
	na, nb := int(m.round[sa]), int(m.round[sb])
	return m.kernelBytes(na, nb), na<<m.bits | nb, true
}

// NumKernels returns the number of distinct kernel bodies: swap aliases and
// zero-side entries, which are a jump or the shared empty kernel, are
// excluded.
func (m *Model) NumKernels() int {
	n := 0
	for _, sa := range m.nominal {
		for _, sb := range m.nominal {
			if s := m.shape(sa, sb); s != shapeZero && s != shapeAlias {
				n++
			}
		}
	}
	return n
}

// CodeSize returns the modelled machine-code footprint of the whole library
// in bytes: the paper's Table II "code size" column.
func (m *Model) CodeSize() int {
	total := 0
	for _, sa := range m.nominal {
		for _, sb := range m.nominal {
			total += m.kernelBytes(sa, sb)
		}
	}
	return total
}
