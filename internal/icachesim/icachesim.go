// Package icachesim models an L1 instruction cache, standing in for the
// hardware performance counters behind Table II of the FESIA paper.
//
// The paper shows that generating every AVX512 kernel (520 KB of code)
// overflows the L1 i-cache, and that sampling kernel sizes at stride 4 or 8
// shrinks the code by 90%/98% and cuts misses by 13%/30%. Reproducing the
// counter readings needs real hardware; reproducing the *mechanism* needs
// only a cache model: kernels are laid out contiguously in a synthetic
// address space, a dispatch trace drives line fills, and an LRU set-
// associative cache counts misses. See DESIGN.md (substitutions).
package icachesim

import (
	"fmt"

	"fesia/internal/kernels/kernelgen"
)

// Cache is a set-associative cache with LRU replacement.
type Cache struct {
	lineBits uint
	sets     [][]uint64 // per-set tag stacks, most recent first
	assoc    int
	nsets    int

	accesses int
	misses   int
}

// New returns a cache of sizeBytes with the given line size and
// associativity. Typical L1i: New(32*1024, 64, 8).
func New(sizeBytes, lineBytes, assoc int) *Cache {
	if sizeBytes <= 0 || lineBytes <= 0 || assoc <= 0 {
		panic("icachesim: non-positive geometry")
	}
	if sizeBytes%(lineBytes*assoc) != 0 {
		panic(fmt.Sprintf("icachesim: size %d not divisible by line*assoc %d", sizeBytes, lineBytes*assoc))
	}
	lineBits := uint(0)
	for 1<<lineBits < lineBytes {
		lineBits++
	}
	if 1<<lineBits != lineBytes {
		panic("icachesim: line size must be a power of two")
	}
	nsets := sizeBytes / (lineBytes * assoc)
	c := &Cache{
		lineBits: lineBits,
		assoc:    assoc,
		nsets:    nsets,
		sets:     make([][]uint64, nsets),
	}
	for i := range c.sets {
		c.sets[i] = make([]uint64, 0, assoc)
	}
	return c
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	for i := range c.sets {
		c.sets[i] = c.sets[i][:0]
	}
	c.accesses = 0
	c.misses = 0
}

// Accesses returns the number of line accesses so far.
func (c *Cache) Accesses() int { return c.accesses }

// Misses returns the number of line misses so far.
func (c *Cache) Misses() int { return c.misses }

// Access touches the line containing addr and reports whether it missed.
func (c *Cache) Access(addr uint64) bool {
	c.accesses++
	line := addr >> c.lineBits
	set := int(line) % c.nsets
	tags := c.sets[set]
	for i, t := range tags {
		if t == line {
			// Move to front (LRU update).
			copy(tags[1:i+1], tags[:i])
			tags[0] = line
			return false
		}
	}
	c.misses++
	if len(tags) < c.assoc {
		tags = append(tags, 0)
	}
	copy(tags[1:], tags)
	tags[0] = line
	c.sets[set] = tags
	return true
}

// AccessRange touches every line of [addr, addr+size) and returns the number
// of misses — the footprint of executing one straight-line kernel.
func (c *Cache) AccessRange(addr uint64, size int) int {
	if size <= 0 {
		return 0
	}
	misses := 0
	first := addr >> c.lineBits
	last := (addr + uint64(size) - 1) >> c.lineBits
	for line := first; line <= last; line++ {
		if c.Access(line << c.lineBits) {
			misses++
		}
	}
	return misses
}

// Layout places every kernel of a modelled library at a fixed synthetic
// address, contiguously in control-code order, mirroring how a linker lays
// out a precompiled kernel library.
type Layout struct {
	model *kernelgen.Model
	addr  map[int]uint64 // ctrl -> start address
	size  map[int]int    // ctrl -> bytes
	total uint64
}

// NewLayout builds the address map for a kernel library model.
func NewLayout(m *kernelgen.Model) *Layout {
	l := &Layout{model: m, addr: map[int]uint64{}, size: map[int]int{}}
	for sa := 0; sa <= m.Cap(); sa++ {
		for sb := 0; sb <= m.Cap(); sb++ {
			bytes, ctrl, ok := m.KernelBytes(sa, sb)
			if !ok {
				continue
			}
			if _, seen := l.addr[ctrl]; seen {
				continue
			}
			l.addr[ctrl] = l.total
			l.size[ctrl] = bytes
			l.total += uint64(bytes)
		}
	}
	return l
}

// CodeBytes returns the summed footprint of all distinct kernels.
func (l *Layout) CodeBytes() uint64 { return l.total }

// NumKernels returns the number of distinct dispatch targets.
func (l *Layout) NumKernels() int { return len(l.addr) }

// Replay executes a dispatch trace of (sa, sb) segment-size pairs against
// the cache and returns the number of i-cache misses. Pairs beyond the
// library's capacity dispatch to the shared generic kernel, modelled at a
// fixed address past the library.
func (l *Layout) Replay(c *Cache, trace [][2]int) int {
	genericAddr := l.total
	const genericSize = 160
	misses := 0
	for _, p := range trace {
		_, ctrl, ok := l.model.KernelBytes(p[0], p[1])
		if !ok {
			misses += c.AccessRange(genericAddr, genericSize)
			continue
		}
		misses += c.AccessRange(l.addr[ctrl], l.size[ctrl])
	}
	return misses
}
