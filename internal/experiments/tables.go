package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"fesia/internal/core"
	"fesia/internal/datasets"
	"fesia/internal/icachesim"
	"fesia/internal/kernels/kernelgen"
	"fesia/internal/simd"
)

// BreakdownSweep reproduces Fig. 14: how time splits between step 1 (bitmap
// intersection) and step 2 (segment intersection) as the bitmap size m and
// segment size s vary. Inputs are two equal sets with selectivity zero, as
// in the paper (input set size 200 kB ≈ 50K uint32 elements).
func BreakdownSweep(n int, scales []float64, segBits []int, w simd.Width) *Table {
	rng := rand.New(rand.NewSource(14))
	a, b := datasets.GenPairSelectivity(rng, n, n, 0, uint32(64*n))

	t := &Table{
		ID:    "fig14",
		Title: fmt.Sprintf("Performance breakdown vs bitmap size (m = scale*n) and segment size (n = %d, selectivity 0)", n),
		Header: []string{"Scale", "SegBits", "BitmapBits", "Step1(us)", "Step2(us)",
			"Step1%", "SegPairs"},
	}
	for _, scale := range scales {
		for _, s := range segBits {
			cfg := core.Config{Width: w, Scale: scale, SegBits: s}
			sa := core.MustNewSet(a, cfg)
			sb := core.MustNewSet(b, cfg)
			// Median-of-several to stabilize the split.
			var bd core.Breakdown
			var best time.Duration
			for i := 0; i < 5; i++ {
				cur := core.CountMergeBreakdown(sa, sb)
				total := cur.BitmapTime + cur.SegmentTime
				if i == 0 || total < best {
					best = total
					bd = cur
				}
			}
			total := bd.BitmapTime + bd.SegmentTime
			pct := 0.0
			if total > 0 {
				pct = 100 * float64(bd.BitmapTime) / float64(total)
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.0f", scale),
				fmt.Sprintf("%d", s),
				fmt.Sprintf("%d", sa.BitmapBits()),
				us(bd.BitmapTime),
				us(bd.SegmentTime),
				fmt.Sprintf("%.1f", pct),
				fmt.Sprintf("%d", bd.SegPairs),
			})
		}
	}
	return t
}

// Table2 reproduces Table II: modelled code size and simulated L1
// instruction-cache misses for the full, stride-4 and stride-8 AVX512
// kernel libraries, replaying the dispatch traces of several synthetic
// intersection workloads.
//
// The workloads use a dense bitmap (few bits per element) so segments hold
// many elements and dispatches spread across the whole range of kernel
// sizes — the regime where the full kernel library overflows the L1i, which
// is exactly the situation Section VI's stride sampling addresses.
func Table2(n int) *Table {
	rng := rand.New(rand.NewSource(2))
	cfg := core.Config{Width: simd.WidthAVX512, Scale: 1.5}
	var trace [][2]int
	for pair := 0; pair < 4; pair++ {
		a, b := datasets.GenPairSelectivity(rng, n, n, 0.01, uint32(16*n))
		sa := core.MustNewSet(a, cfg)
		sb := core.MustNewSet(b, cfg)
		trace = append(trace, core.DispatchTrace(sa, sb)...)
	}

	t := &Table{
		ID:     "table2",
		Title:  "L1 instruction cache model: AVX512 kernel libraries (synthetic trace)",
		Header: []string{"SIMD Kernels", "Kernels", "CodeSize(bytes)", "L1i misses", "MissReduction"},
		Notes: []string{
			fmt.Sprintf("trace: %d kernel dispatches from a %d-element pair; 32KiB/64B/8-way LRU model", len(trace), n),
			"code sizes come from the kernel library's instruction cost model (internal/kernels/kernelgen)",
		},
	}
	var fullMisses int
	for _, row := range []struct {
		name   string
		stride int
	}{
		{"AVX512", 1},
		{"AVX512-stride4", 4},
		{"AVX512-stride8", 8},
	} {
		layout := icachesim.NewLayout(kernelgen.NewModel(kernelgen.StrideSpec(row.stride)))
		cache := icachesim.New(32*1024, 64, 8)
		misses := layout.Replay(cache, trace)
		if row.stride == 1 {
			fullMisses = misses
		}
		reduction := "-"
		if row.stride != 1 && fullMisses > 0 {
			reduction = fmt.Sprintf("%.0f%%", 100*(1-float64(misses)/float64(fullMisses)))
		}
		t.Rows = append(t.Rows, []string{
			row.name,
			fmt.Sprintf("%d", layout.NumKernels()),
			fmt.Sprintf("%d", layout.CodeBytes()),
			fmt.Sprintf("%d", misses),
			reduction,
		})
	}
	return t
}

// Table3 reproduces Table III: the graph datasets with node/edge counts and
// FESIA construction time, plus the corpus row from the database task.
func Table3(scale float64) *Table {
	t := &Table{
		ID:     "table3",
		Title:  "Dataset details and construction time",
		Header: []string{"Dataset", "Nodes/Docs", "Edges/Items", "ConstructionTime"},
	}
	for _, sg := range datasets.StandardGraphs() {
		cfg := sg.Cfg
		if scale != 1 {
			cfg.Nodes = int(float64(cfg.Nodes) * scale)
			if cfg.Nodes < 100 {
				cfg.Nodes = 100
			}
		}
		g := datasets.NewGraph(cfg)
		start := time.Now()
		sets := make([]*core.Set, 0, g.Nodes)
		adj := adjacency(g)
		for v := 0; v < g.Nodes; v++ {
			sets = append(sets, core.MustNewSet(adj[v], core.DefaultConfig()))
		}
		el := time.Since(start)
		Sink += int64(len(sets))
		t.Rows = append(t.Rows, []string{
			sg.Name,
			fmt.Sprintf("%d", g.Nodes),
			fmt.Sprintf("%d", g.NumEdges()),
			fmt.Sprintf("%.3fs", el.Seconds()),
		})
	}
	corpusCfg := datasets.CorpusConfig{
		NumDocs:  int(20000 * scale),
		NumItems: int(50000 * scale),
		MeanLen:  30,
		Seed:     3,
	}
	start := time.Now()
	corpus := datasets.NewCorpus(corpusCfg)
	built := 0
	for _, lst := range corpus.Postings {
		core.MustNewSet(lst, core.DefaultConfig())
		built++
	}
	el := time.Since(start)
	t.Rows = append(t.Rows, []string{
		"WebDocs-like",
		fmt.Sprintf("%d", corpus.NumDocs),
		fmt.Sprintf("%d", corpus.DistinctItems()),
		fmt.Sprintf("%.3fs", el.Seconds()),
	})
	return t
}

func adjacency(g *datasets.Graph) [][]uint32 {
	adj := make([][]uint32, g.Nodes)
	for _, e := range g.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	return adj
}
