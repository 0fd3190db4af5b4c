package main

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// setupReps is the fewest times a run repeats its set-up; it repeats a
// cheap set-up until setupMin has passed, up to setupMaxReps. setup_s is
// the median.
const (
	setupReps    = 5
	setupMaxReps = 25
	setupMin     = time.Second
)

// repeatSetup runs build as setupReps says and returns the last build's
// result and the median duration in seconds. Before each build the previous
// result is dropped and collected, so no build pays for another's garbage.
// Each build is a span named name.
func repeatSetup[T any](r *run, name string, build func() (T, error)) (T, float64, error) {
	var last, zero T
	var times []float64
	var total time.Duration
	for len(times) < setupReps || (total < setupMin && len(times) < setupMaxReps) {
		last = zero
		runtime.GC()
		sp := r.tr.begin(name, -1)
		t0 := time.Now()
		v, err := build()
		d := time.Since(t0)
		r.tr.end(sp)
		if err != nil {
			return zero, 0, err
		}
		last = v
		times = append(times, d.Seconds())
		total += d
	}
	r.note("%s: %d set-ups, median %.4f s of %.4g", name, len(times), median(times), times)
	return last, median(times), nil
}

// closedLoop runs op back to back on `callers` goroutines until d has
// elapsed and returns every call's latency in ms. op gets its caller's index
// and sequence number and returns the time of the library call alone, so
// answer checks inside op are not timed.
func closedLoop(callers int, d time.Duration, op func(caller, seq int) time.Duration) []float64 {
	lats := make([][]float64, callers)
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; seq == 0 || time.Now().Before(deadline); seq++ {
				lats[c] = append(lats[c], float64(op(c, seq))/1e6)
			}
		}()
	}
	wg.Wait()
	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	return all
}

// loadChunks is how many light and busy chunks a closed-loop run
// alternates between.
const loadChunks = 10

// lightAndBusy runs op at light load (one caller) and busy load (one caller
// per CPU) in alternating chunks, so both loads see the same machine noise,
// and sets the workload's throughput and latency metrics. Tails are taken
// per chunk, as windowTail does. work(seq) is the class and input
// elements of the one-caller op seq; calls of one class do the same work.
// elems_per_s is one pass over the classes at their median one-caller
// latencies; max_qps is the median over chunks of the busy callers'
// completion rate.
func lightAndBusy(r *run, op func(caller, seq int) time.Duration, work func(seq int) (class, elems int)) {
	var light, busy [][]float64
	var opRates []float64
	byClass, elems := map[int][]float64{}, map[int]int{}
	lightSeq := 0
	for range loadChunks {
		lat := closedLoop(1, r.phase(0.6/loadChunks), func(_, _ int) time.Duration {
			d := op(0, lightSeq)
			c, n := work(lightSeq)
			byClass[c] = append(byClass[c], float64(d)/1e6)
			elems[c] = n
			lightSeq++
			return d
		})
		light = append(light, lat)
		lat = closedLoop(r.nproc, r.phase(0.4/loadChunks), op)
		busy = append(busy, lat)
		opRates = append(opRates, float64(r.nproc)*1e3/mean(lat))
	}
	r.set("elems_per_s", passRate(byClass, elems))
	// Light load is one caller, so the light latencies are the op ones.
	p50 := percentile(sortedCopy(slices.Concat(light...)), 50)
	pct, v, n := windowTail(light)
	r.set("op_p50_ms", p50)
	r.set("op_tail_ms", v)
	r.set("p50_ms.light", p50)
	r.set("tail_ms.light", v)
	r.note("op_tail_ms and tail_ms.light are p%.2f: %d one-caller ops in %d classes", pct, n, len(byClass))
	r.set("p50_ms.busy", percentile(sortedCopy(slices.Concat(busy...)), 50))
	pct, v, n = windowTail(busy)
	r.set("tail_ms.busy", v)
	r.note("tail_ms.busy is p%.2f: %d ops from %d callers", pct, n, r.nproc)
	r.set("max_qps", median(opRates))
}
