package main

import (
	"time"

	"fesia/internal/baselines"
	"fesia/internal/core"
	"fesia/internal/graph"
)

// runTriangles is the paper's Fig. 13 application: full triangle counts on
// a LiveJournal-like graph with one worker per CPU, millions of tiny
// intersections through the batch engine and the worker pool.
func runTriangles(r *run) error {
	g := genGraph(r.seed)
	want := graph.CountTrianglesParallel(g, baselines.CountScalar, r.nproc)
	lists := make([][]uint32, g.NumVertices())
	var elems, perCount int // set elements; input elements intersected per count
	for u := range lists {
		lists[u] = g.Neighbors(u)
		elems += len(lists[u])
	}
	for u, nu := range lists {
		for _, v := range nu {
			perCount += len(lists[u]) + len(lists[v])
		}
	}

	fg, setup, err := repeatSetup(r, "graph.BuildFesia", func() (*graph.FesiaGraph, error) {
		return graph.BuildFesia(g, core.DefaultConfig())
	})
	if err != nil {
		return err
	}
	// BuildFesia keeps its sets private; the same lists and configuration
	// built through core.NewSetBatch give the same sets for the memory
	// figure and the materialized-output check.
	sets, err := core.NewSetBatch(lists, core.DefaultConfig())
	if err != nil {
		return err
	}
	var mem int
	for _, s := range sets {
		mem += s.MemoryBytes()
	}
	r.note("graph: %d vertices, %d forward edges, %d triangles, %d input elements per count",
		len(lists), elems, want, perCount)
	checkTriangleLists(r, lists, sets)

	// Calls rotate over graphCopies builds of the graph. Where a build lands
	// in memory moved a count's time by up to a quarter from build to build;
	// rotating averages that over each run instead of leaving it to which
	// build a run happens to keep.
	fgs := []*graph.FesiaGraph{fg}
	for len(fgs) < graphCopies {
		fg, err := graph.BuildFesia(g, core.DefaultConfig())
		if err != nil {
			return err
		}
		fgs = append(fgs, fg)
	}
	op := func(c, seq int) time.Duration {
		fg := fgs[(c+seq)%len(fgs)]
		sp := r.tr.begin("graph.FesiaGraph.CountTriangles", -1)
		t0 := time.Now()
		n := fg.CountTriangles(r.nproc)
		d := time.Since(t0)
		r.tr.end(sp)
		r.check(n == want)
		return d
	}
	for i := range fgs {
		op(0, i) // warm-up, discarded
	}
	if r.tr != nil {
		return trianglesTraced(r, g, lists, op)
	}
	r.set("setup_s", setup)
	r.set("mem_bytes_per_elem", float64(mem)/float64(elems))
	lightAndBusy(r, op, func(int) (int, int) { return 0, perCount })
	return nil
}

// graphCopies is how many builds of the graph the triangles workload
// rotates over.
const graphCopies = 4

// checkTriangleLists compares the batch engine's materialized output for
// every 64th vertex with the scalar merge, sorted.
func checkTriangleLists(r *run, lists [][]uint32, sets []*core.Set) {
	ex := core.NewExecutor()
	var cands []*core.Set
	var dst, ref []uint32
	for u := 0; u < len(lists); u += 64 {
		cands = cands[:0]
		total := 0
		for _, v := range lists[u] {
			cands = append(cands, sets[v])
			total += min(len(lists[u]), len(lists[v]))
		}
		counts := make([]int, len(cands))
		dst = append(dst[:0], make([]uint32, total)...)
		ex.IntersectManyInto(dst, counts, sets[u], cands)
		off := 0
		for i, v := range lists[u] {
			ref = append(ref[:0], make([]uint32, min(len(lists[u]), len(lists[v])))...)
			n := baselines.IntersectScalar(ref, lists[u], lists[v])
			r.check(counts[i] == n && equalSorted(dst[off:off+counts[i]], ref[:n]))
			off += counts[i]
		}
	}
}
