package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"fesia"
	"fesia/internal/serve"
)

// The search ladder: fixed absolute arrival rates stepped from light load
// to past the knee of fesiaserve's shipped defaults on a 2-CPU host, where
// the knee (p99 reaching limitMs) moved between about 700/s and 1800/s
// with the load of other tenants when the ladder was set. Each step runs
// for at least minStepSamples requests, so its p99 has at least ten
// samples beyond it.
var ladderRates = []float64{500, 800, 1000, 1200, 1450, 1750, 2100, 2500, 3000}

const (
	busyStep = 1 // index of the step reported as busy load, below the knee
	// limitMs is the p99 latency limit that defines max_qps: the serving
	// tier's own default p99 objective (serve.Config.ShedTargetP99).
	limitMs = 25.0
	// genLateShare bounds the generator's p90 lateness as a share of
	// limitMs. Beyond it the generator, not the server, fell behind: a
	// tenth of the requests would start a fifth of the limit late, and the
	// run is invalid.
	genLateShare   = 0.2
	minStepSamples = 1000
)

// stepDuration returns how long step i runs.
func stepDuration(i int) time.Duration {
	return time.Duration(max(1.5, minStepSamples/ladderRates[i]) * float64(time.Second))
}

// runSearch serves a Zipf corpus through fesiaserve under an open loop of
// independent users with 2-4-term queries weighted by posting length.
func runSearch(r *run) error {
	s := genSearch(r.seed)
	var postings, elems int
	for _, l := range s.lists {
		postings += len(l)
	}
	for _, e := range s.elems {
		elems += e
	}
	meanElems := float64(elems) / float64(len(s.queries))
	r.note("corpus: %d postings over %d items; %d queries, %.0f input elements each on average",
		postings, len(s.lists), len(s.queries), meanElems)

	if err := searchInProcess(r, s); err != nil {
		return err
	}
	runtime.GC()

	srv, err := startServer(r)
	if err != nil {
		return err
	}
	defer srv.stop()
	setup, err := loadCorpus(r, srv, s.lists)
	if err != nil {
		return err
	}
	heap, err := srv.liveHeap()
	if err != nil {
		return err
	}
	urls := queryURLs(srv.public, s)
	openStep(r, s, urls, ladderRates[0], time.Second, r.seed+7, 0) // warm-up, discarded

	if r.tr != nil {
		return searchTraced(r, srv, s, urls)
	}
	r.set("setup_s", setup)
	r.set("mem_bytes_per_elem", float64(heap)/float64(postings))
	// The ladder needs only the queries and their answers. Dropping the
	// corpus and collecting the set-up's garbage now keeps the client's
	// collections small and out of the measured steps.
	s.lists = nil
	runtime.GC()

	// Light and busy load run first, as repeats interleaved in time; their
	// p99 is the median of the repeats' p99s, so one burst of steal by the
	// hypervisor moves it less. The ladder then climbs until a step fails.
	var light, busy []*stepResult
	for rep := range loadRepeats {
		for _, i := range []int{0, busyStep} {
			st, err := ladderStep(r, s, urls, i, rep)
			if err != nil {
				return err
			}
			if i == 0 {
				light = append(light, st)
			} else {
				busy = append(busy, st)
			}
		}
	}
	steps := []rateStep{repeatedStep(light), repeatedStep(busy)}
	for i := busyStep + 1; i < len(ladderRates) && steps[len(steps)-1].Meets; i++ {
		st, err := ladderStep(r, s, urls, i, 0)
		if err != nil {
			return err
		}
		steps = append(steps, rateStep{Rate: st.rate, P99: st.p99, Meets: st.meets(limitMs)})
	}
	qps, where := maxQPS(steps, limitMs)
	r.note("max_qps %.1f (%s the ladder, p99 limit %.1f ms)", qps, where, limitMs)
	r.set("max_qps", qps)
	r.set("elems_per_s", qps*meanElems)
	r.set("p50_ms.light", percentile(sortedCopy(allLat(light)), 50))
	r.set("tail_ms.light", steps[0].P99)
	r.set("p50_ms.busy", percentile(sortedCopy(allLat(busy)), 50))
	r.set("tail_ms.busy", steps[1].P99)
	r.note("tail_ms.light and tail_ms.busy are the HTTP p99 at %.0f/s and %.0f/s", steps[0].Rate, steps[1].Rate)
	return nil
}

// loadRepeats is how many interleaved repeats the light and busy steps run.
const loadRepeats = 3

// ladderStep runs repeat rep of ladder step i, prints it, and fails the run
// when the generator fell behind.
func ladderStep(r *run, s *served, urls []string, i, rep int) (*stepResult, error) {
	rate := ladderRates[i]
	st := openStep(r, s, urls, rate, stepDuration(i), r.seed*1000+int64(10*i+rep), 0)
	late := sortedCopy(st.late)
	r.note("step %4.0f/s: %d requests, p50 %.3f ms, p99 %.3f ms, backlog by quarter %.1f, generator late p50/p90/p99 %.3f/%.3f/%.3f ms, meets %v",
		rate, len(st.lat), percentile(sortedCopy(st.lat), 50), st.p99, st.backlog,
		percentile(late, 50), percentile(late, 90), percentile(late, 99), st.meets(limitMs))
	if p90 := percentile(late, 90); p90 > genLateShare*limitMs {
		return nil, fmt.Errorf("run invalid: the load generator fell behind at %.0f/s (p90 %.3f ms late, limit %.1f ms)",
			rate, p90, genLateShare*limitMs)
	}
	return st, nil
}

// repeatedStep combines repeats of one rate: the median of their p99s, and
// it meets the limit when that median does and no repeat's backlog grew.
func repeatedStep(reps []*stepResult) rateStep {
	var p99s []float64
	meets := true
	for _, st := range reps {
		p99s = append(p99s, st.p99)
		meets = meets && !st.growing
	}
	p99 := median(p99s)
	return rateStep{Rate: reps[0].rate, P99: p99, Meets: meets && p99 <= limitMs}
}

func allLat(reps []*stepResult) []float64 {
	var all []float64
	for _, st := range reps {
		all = append(all, st.lat...)
	}
	return all
}

// searchInProcess times single queries through serve.Tier in-process, one
// caller at a time, with fesiaserve's shipped defaults (learned planner,
// default shards, 1-in-64 tracing, 20ms slow log): the op metrics of this
// workload. A traced run instead measures the tracing overhead on it.
func searchInProcess(r *run, s *served) error {
	fesia.EnablePlanner(fesia.WithPlanner(fesia.PlannerLearned))
	defer fesia.EnablePlanner(fesia.WithPlanner(fesia.PlannerOff)) // the library default, for the probes after
	tier, err := serve.NewTier(s.lists, serve.Config{TraceSample: 64, SlowQuery: 20 * time.Millisecond})
	if err != nil {
		return err
	}
	defer tier.Shutdown(context.Background())
	ctx := context.Background()
	op := func(_, seq int) time.Duration {
		q := seq % len(s.queries)
		sp := r.tr.begin("serve.Tier.QueryCount", -1)
		t0 := time.Now()
		n, err := tier.QueryCount(ctx, s.queries[q]...)
		d := time.Since(t0)
		r.tr.end(sp)
		if err != nil {
			r.refused()
		} else {
			r.check(n == s.want[q])
		}
		return d
	}
	closedLoop(1, 500*time.Millisecond, op) // warm-up, discarded
	if r.tr != nil {
		traceOverhead(r, op)
		return nil
	}
	lat := sortedCopy(closedLoop(1, r.phase(0.1), op))
	r.set("op_p50_ms", percentile(lat, 50))
	pct, v, _ := tail(lat)
	r.set("op_tail_ms", v)
	r.note("op_tail_ms is p%.2f of %d in-process queries", pct, len(lat))
	return nil
}
