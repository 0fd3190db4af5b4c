package main

import (
	"math"
	"runtime"
	"slices"
	"time"

	"fesia"
	"fesia/internal/baselines"
	"fesia/internal/core"
	"fesia/internal/graph"
)

// A traced run measures every per-layer metric on every workload. Layers
// are probed on the workload's own sets and queries where the workload has
// them; the yardstick ratios core.vs_merge.* are measured on the pairs pool
// and the triangles graph of the same seed in every traced run, so the
// FESIA-vs-merge crossover is visible next to each workload's breakdown.

// maxProbeQueries caps how many of a workload's queries the in-process
// layer probes replay.
const maxProbeQueries = 1500

// traceOverhead runs op in alternating traced and untraced chunks and
// reports the ratio of their median latencies.
func traceOverhead(r *run, op func(caller, seq int) time.Duration) {
	tr := r.tr
	var on, off []float64
	chunk := r.phase(0.025)
	for i := range 16 {
		if i%2 == 0 {
			on = append(on, closedLoop(1, chunk, op)...)
		} else {
			r.tr = nil
			off = append(off, closedLoop(1, chunk, op)...)
			r.tr = tr
		}
	}
	r.note("tracing overhead: traced median %.4f ms over untraced %.4f ms (%d and %d ops)",
		median(on), median(off), len(on), len(off))
	r.set("bench.trace_overhead", median(on)/median(off))
}

// pairsTraced is the traced run of pairs.
func pairsTraced(r *run, pool []pairInput, sets [][2]*fesia.Set, op func(c, seq, parent int) time.Duration) error {
	traceOverhead(r, func(c, seq int) time.Duration {
		sp := r.tr.begin("bench.op", -1)
		d := op(c, seq, sp)
		r.tr.end(sp)
		return d
	})
	s := pairsServed(pool)
	batches := make([][]uint32, len(pool))
	for i := range pool {
		batches[i] = []uint32{uint32(2 * i), uint32(2*i + 1)}
	}
	if err := layerProbe(r, s, batches, s.queries); err != nil {
		return err
	}
	vsMergePairs(r, pool, sets)
	if err := vsMergeTriangles(r, nil); err != nil {
		return err
	}
	// The two smaller sizes keep the served copy of the pool small.
	return serveProbe(r, pairsServed(pool[:4]), 40, r.phase(0.25))
}

// pairsServed renders the pool as a served corpus: list 2i and 2i+1 are
// pair i, and each query is one pair.
func pairsServed(pool []pairInput) *served {
	lists := make([][]uint32, 0, 2*len(pool))
	queries := make([][]uint32, len(pool))
	for i, p := range pool {
		lists = append(lists, p.a, p.b)
		queries[i] = []uint32{uint32(2 * i), uint32(2*i + 1)}
	}
	return newServed(lists, queries)
}

// trianglesTraced is the traced run of triangles: edge (u, v) is the query
// N+(u) ∩ N+(v), vertex u's batch is N+(u) against each forward neighbor's
// list, as CountTriangles issues it, and the k-way tuples are u with two
// consecutive forward neighbors, the 3-way intersections of 4-clique
// counting.
func trianglesTraced(r *run, g *graph.CSR, lists [][]uint32, op func(c, seq int) time.Duration) error {
	traceOverhead(r, op)
	var queries, batches, triples [][]uint32
	for u, nu := range lists {
		if len(nu) == 0 {
			continue
		}
		b := []uint32{uint32(u)}
		for j, v := range nu {
			queries = append(queries, []uint32{uint32(u), v})
			b = append(b, v)
			if j > 0 {
				triples = append(triples, []uint32{uint32(u), nu[j-1], v})
			}
		}
		batches = append(batches, b)
	}
	queries = spread(queries, 4*maxProbeQueries)
	s := newServed(lists, queries)
	if err := layerProbe(r, s, spread(batches, maxProbeQueries), triples); err != nil {
		return err
	}
	pool := genPairs(r.seed)
	sets, err := buildPool(pool)
	if err != nil {
		return err
	}
	vsMergePairs(r, pool, sets)
	if err := vsMergeTriangles(r, g); err != nil {
		return err
	}
	return serveProbe(r, s, 400, r.phase(0.25))
}

// spread returns at most n elements of xs, evenly spaced.
func spread[T any](xs []T, n int) []T {
	if len(xs) <= n {
		return xs
	}
	out := make([]T, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n]
	}
	return out
}

// buildPool builds both sides of every pair with fesia.Build.
func buildPool(pool []pairInput) ([][2]*fesia.Set, error) {
	sets := make([][2]*fesia.Set, len(pool))
	for i, p := range pool {
		a, err := fesia.Build(p.a)
		if err != nil {
			return nil, err
		}
		b, err := fesia.Build(p.b)
		if err != nil {
			return nil, err
		}
		sets[i] = [2]*fesia.Set{a, b}
	}
	return sets, nil
}

// layerProbe times each in-process layer on the workload's queries: the
// build, the bitmap filter and segment kernels of the two shortest lists of
// each query (CountMergeBreakdown, DispatchTrace), the hash probe on the
// same pair (CountHashBreakdown), the batch engine on each batch (first
// list against the rest, CountMany) and k-way intersection (CountK) on the
// kway tuples. Every count is checked.
func layerProbe(r *run, s *served, batches, kway [][]uint32) error {
	var elems int
	for _, l := range s.lists {
		elems += len(l)
	}
	runtime.GC()
	sp := r.tr.begin("core.NewSetBatch", -1)
	t0 := time.Now()
	sets, err := core.NewSetBatch(s.lists, core.DefaultConfig())
	build := time.Since(t0)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	r.set("fesia.build_ns_per_elem", float64(build.Nanoseconds())/float64(elems))

	ex := core.NewExecutor()
	queries := spread(s.queries, maxProbeQueries)
	var bitmapT, segT, stageT, scanT time.Duration
	var segPairs, matches, segLenSum, segLenN, probes, survivors int
	for _, q := range queries {
		x, y := twoShortest(s.lists, q)
		want := baselines.CountScalar(s.lists[x], s.lists[y])
		parent := r.tr.begin("probe.pair", -1)
		sp := r.tr.begin("core.Executor.CountMergeBreakdown", parent)
		bd := ex.CountMergeBreakdown(sets[x], sets[y])
		r.tr.end(sp)
		sp = r.tr.begin("core.DispatchTrace", parent)
		dt := core.DispatchTrace(sets[x], sets[y])
		r.tr.end(sp)
		sp = r.tr.begin("core.Executor.CountHashBreakdown", parent)
		hb := ex.CountHashBreakdown(sets[x], sets[y])
		r.tr.end(sp)
		r.tr.end(parent)
		r.check(bd.Count == want)
		r.check(hb.Count == want)
		bitmapT += bd.BitmapTime
		segT += bd.SegmentTime
		segPairs += bd.SegPairs
		matches += bd.Count
		for _, p := range dt {
			segLenSum += p[0] + p[1]
			segLenN += 2
		}
		stageT += hb.StageTime
		scanT += hb.ScanTime
		probes += hb.Probes
		survivors += hb.Survivors
	}
	nq := float64(len(queries))
	r.set("bitmap.filter_ms_per_pair", ms(bitmapT)/nq)
	r.set("bitmap.segpairs_per_match", float64(segPairs)/float64(max(matches, 1)))
	r.set("kernels.segment_ms_per_pair", ms(segT)/nq)
	r.set("kernels.mean_segment_len", float64(segLenSum)/float64(max(segLenN, 1)))
	r.set("core.hash_stage_us", us(stageT)/nq)
	r.set("core.hash_scan_us", us(scanT)/nq)
	r.set("core.hash_survivor_frac", float64(survivors)/float64(max(probes, 1)))

	var batchT time.Duration
	var cands []*core.Set
	var out []int
	for _, b := range batches {
		cands = cands[:0]
		for _, c := range b[1:] {
			cands = append(cands, sets[c])
		}
		out = slices.Grow(out[:0], len(cands))[:len(cands)]
		sp := r.tr.begin("core.Executor.CountMany", -1)
		t0 := time.Now()
		ex.CountMany(sets[b[0]], cands, out)
		batchT += time.Since(t0)
		r.tr.end(sp)
		for i, c := range b[1:] {
			r.check(out[i] == baselines.CountScalar(s.lists[b[0]], s.lists[c]))
		}
	}
	r.set("core.batch_us_per_vertex", us(batchT)/float64(len(batches)))

	var kT time.Duration
	var ks []*core.Set
	var ls [][]uint32
	kway = spread(kway, maxProbeQueries)
	for _, q := range kway {
		ks, ls = ks[:0], ls[:0]
		for _, it := range q {
			ks = append(ks, sets[it])
			ls = append(ls, s.lists[it])
		}
		sp := r.tr.begin("core.Executor.CountK", -1)
		t0 := time.Now()
		n := ex.CountK(ks...)
		kT += time.Since(t0)
		r.tr.end(sp)
		r.check(n == baselines.CountScalarK(ls))
	}
	r.set("core.kway_us", us(kT)/float64(max(len(kway), 1)))
	r.note("layer probe: %d pair queries, %d batches, %d k-way queries", len(queries), len(batches), len(kway))
	return nil
}

// twoShortest returns the indices of the two shortest lists of query q.
func twoShortest(lists [][]uint32, q []uint32) (uint32, uint32) {
	o := slices.Clone(q)
	slices.SortFunc(o, func(a, b uint32) int { return len(lists[a]) - len(lists[b]) })
	return o[0], o[1]
}

// vsMergeRounds is how many interleaved rounds the yardstick ratios take
// the median of.
const vsMergeRounds = 5

// vsMergePairs sets core.vs_merge.sel01 and .sel50: FESIA's IntersectCount
// time over baselines.CountScalar's on the same pairs of each class, each
// side the median of interleaved rounds.
func vsMergePairs(r *run, pool []pairInput, sets [][2]*fesia.Set) {
	ex := fesia.NewExecutor()
	for _, class := range []struct {
		sel  float64
		name string
	}{{0.01, "core.vs_merge.sel01"}, {0.5, "core.vs_merge.sel50"}} {
		var fT, mT []float64
		for range vsMergeRounds {
			var f, m time.Duration
			for i, p := range pool {
				if p.sel != class.sel {
					continue
				}
				sp := r.tr.begin("fesia.Executor.IntersectCount", -1)
				t0 := time.Now()
				nf := ex.IntersectCount(sets[i][0], sets[i][1])
				f += time.Since(t0)
				r.tr.end(sp)
				sp = r.tr.begin("baselines.CountScalar", -1)
				t0 = time.Now()
				nm := baselines.CountScalar(p.a, p.b)
				m += time.Since(t0)
				r.tr.end(sp)
				r.check(nf == nm)
			}
			fT, mT = append(fT, ms(f)), append(mT, ms(m))
		}
		r.note("%s: FESIA %.3f ms, branch-free merge %.3f ms per pass over the class", class.name, median(fT), median(mT))
		r.set(class.name, median(fT)/median(mT))
	}
}

// vsMergeTriangles sets core.vs_merge.triangles: one-worker FESIA triangle
// counting over one-worker counting with baselines.CountScalar. g is
// generated from the seed when nil.
func vsMergeTriangles(r *run, g *graph.CSR) error {
	if g == nil {
		g = genGraph(r.seed)
	}
	fg, err := graph.BuildFesia(g, core.DefaultConfig())
	if err != nil {
		return err
	}
	var fT, mT []float64
	for range vsMergeRounds {
		sp := r.tr.begin("graph.FesiaGraph.CountTriangles", -1)
		t0 := time.Now()
		nf := fg.CountTriangles(1)
		fT = append(fT, ms(time.Since(t0)))
		r.tr.end(sp)
		sp = r.tr.begin("graph.CountTriangles.CountScalar", -1)
		t0 = time.Now()
		nm := graph.CountTriangles(g, baselines.CountScalar)
		mT = append(mT, ms(time.Since(t0)))
		r.tr.end(sp)
		r.check(nf == nm)
	}
	r.note("core.vs_merge.triangles: FESIA %.2f ms, branch-free merge %.2f ms per one-worker count", median(fT), median(mT))
	r.set("core.vs_merge.triangles", median(fT)/median(mT))
	return nil
}

// serveProbe serves the workload's corpus through fesiaserve and offers its
// queries at a fixed rate for d, then sets the serving-tier metrics.
func serveProbe(r *run, s *served, rate float64, d time.Duration) error {
	srv, err := startServer(r)
	if err != nil {
		return err
	}
	defer srv.stop()
	if _, err := loadCorpus(r, srv, s.lists); err != nil {
		return err
	}
	urls := queryURLs(srv.public, s)
	openStep(r, s, urls, rate, time.Second, r.seed+7, 0) // warm-up, discarded
	return serveLayers(r, srv, s, urls, rate, d)
}

// forceEvery is how often a traced step asks for a forced trace capture.
const forceEvery = 8

// serveLayers runs one traced open-loop step against a loaded server and
// sets the serving-tier, HTTP and generator metrics from the replies, their
// forced traces and the /metrics counters around the step.
func serveLayers(r *run, srv *server, s *served, urls []string, rate float64, d time.Duration) error {
	before, err := srv.metrics()
	if err != nil {
		return err
	}
	st := openStep(r, s, urls, rate, d, r.seed*1000+99, forceEvery)
	after, err := srv.metrics()
	if err != nil {
		return err
	}
	delta := func(k string) float64 { return after[k] - before[k] }

	server, httpMs := sortedCopy(st.server), sortedCopy(st.http)
	r.set("serve.server_ms_p50", percentile(server, 50))
	r.set("serve.server_ms_p99", percentile(server, 99))
	r.set("serve.queue_ms_p99", percentile(sortedCopy(st.queue), 99))
	r.set("serve.straggler_ratio", median(st.strag))
	admitted := delta(`fesia_serve_requests_total{outcome="admitted"}`)
	rejected := delta(`fesia_serve_requests_total{outcome="rejected"}`) + delta(`fesia_serve_requests_total{outcome="shed"}`)
	r.set("serve.reject_frac", rejected/math.Max(admitted+rejected, 1))
	hash := delta(`fesia_planner_decisions_total{decision="seg_seg",arm="hash"}`)
	merge := delta(`fesia_planner_decisions_total{decision="seg_seg",arm="merge"}`)
	r.set("planner.hash_share", hash/math.Max(hash+merge, 1))
	r.set("fesiaserve.http_ms_p50", percentile(httpMs, 50))
	r.set("bench.gen_late_ms_p99", percentile(sortedCopy(st.late), 99))
	r.note("serve step %.0f/s: %d requests, %d forced traces, backlog by quarter %.1f, p99 from due %.3f ms",
		rate, len(st.lat), len(st.queue), st.backlog, st.p99)
	return nil
}

// searchTraced is the traced run of search: the in-process probes replay
// the query stream; the serving metrics come from a traced step at the busy
// rate against the loaded server.
func searchTraced(r *run, srv *server, s *served, urls []string) error {
	if err := serveLayers(r, srv, s, urls, ladderRates[busyStep], r.phase(0.25)); err != nil {
		return err
	}
	batches := make([][]uint32, len(s.queries))
	for i, q := range s.queries {
		b := slices.Clone(q)
		slices.SortFunc(b, func(a, c uint32) int { return len(s.lists[a]) - len(s.lists[c]) })
		batches[i] = b
	}
	var kway [][]uint32
	for _, q := range s.queries {
		if len(q) >= 3 {
			kway = append(kway, q)
		}
	}
	if err := layerProbe(r, s, spread(batches, maxProbeQueries), kway); err != nil {
		return err
	}
	pool := genPairs(r.seed)
	sets, err := buildPool(pool)
	if err != nil {
		return err
	}
	vsMergePairs(r, pool, sets)
	return vsMergeTriangles(r, nil)
}
