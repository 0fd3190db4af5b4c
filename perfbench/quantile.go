package main

import (
	"math"
	"slices"
)

// tailBeyond is how many samples must lie above a reported tail percentile;
// tailCap is the highest percentile reported as a tail.
const (
	tailBeyond = 10
	tailCap    = 90
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted. Failed operations are stored as +Inf so they miss every limit.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	r := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(r, 1), len(sorted))-1]
}

// tail returns the highest percentile of sorted, up to tailCap, that still
// has tailBeyond samples above it, and the value there. ok is false when
// there are too few samples for any such percentile. The cap keeps the tail
// below the share of calls that a burst of contention from other tenants of
// a shared host can reach: on such a host the p99 of one caller's calls
// moved by up to a third between runs of the same code.
func tail(sorted []float64) (pct, v float64, ok bool) {
	n := len(sorted)
	if float64(n)*(100-tailCap)/100 >= tailBeyond {
		return tailCap, percentile(sorted, tailCap), true
	}
	if n <= tailBeyond {
		return 0, math.NaN(), false
	}
	idx := n - tailBeyond - 1
	return 100 * float64(idx+1) / float64(n), sorted[idx], true
}

// windowTail returns the tail of latencies recorded in consecutive windows
// of a run: the median over windows of each window's value at pct, the tail
// percentile that all n samples together support (see tail). A pooled tail
// belongs to whichever stretch of contention from other tenants of a shared
// host slowed part of the run; one that slows fewer than half the windows
// does not move this tail. A pooled median needs no such help.
func windowTail(windows [][]float64) (pct, v float64, n int) {
	var all, tails []float64
	for _, w := range windows {
		all = append(all, w...)
	}
	pct, _, ok := tail(sortedCopy(all))
	if !ok {
		return 0, math.NaN(), len(all)
	}
	for _, w := range windows {
		tails = append(tails, percentile(sortedCopy(w), pct))
	}
	return pct, median(tails), len(all)
}

// passRate returns the input elements per second of one pass over every
// class of operation, each at its median latency: lat holds each class's
// latencies in ms and elems its input elements per call. Medians keep a
// burst of contention that slows a few calls from moving the rate.
func passRate(lat map[int][]float64, elems map[int]int) float64 {
	var n, ms float64
	for c, l := range lat {
		n += float64(elems[c])
		ms += median(l)
	}
	return n * 1e3 / ms
}

// sortedCopy returns xs sorted ascending without modifying xs.
func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median returns the median of xs (mean of the middle two for even counts).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// rateStep is one fixed-rate step of an open-loop ladder as max_qps sees it.
type rateStep struct {
	Rate  float64 // offered arrivals per second
	P99   float64 // p99 latency from due time, ms
	Meets bool    // p99 within the limit and no growing backlog
}

// maxQPS returns the arrival rate at which p99 latency reaches limitMs,
// interpolated in log(p99) between the last step that met the limit and the
// first that did not, so the figure moves smoothly instead of jumping by a
// whole step. A step that failed only through a growing backlog pins the
// answer to the rate below it. where is "ladder" for an interpolated
// crossing, "below" when even the first step failed (scaled from it) and
// "above" when no step failed (the top rate, a lower bound).
func maxQPS(steps []rateStep, limitMs float64) (qps float64, where string) {
	if len(steps) == 0 {
		return math.NaN(), "none"
	}
	j := slices.IndexFunc(steps, func(s rateStep) bool { return !s.Meets })
	switch j {
	case -1:
		return steps[len(steps)-1].Rate, "above"
	case 0:
		return steps[0].Rate * min(1, limitMs/steps[0].P99), "below"
	}
	lo, hi := steps[j-1], steps[j]
	if hi.P99 <= limitMs || lo.P99 <= 0 {
		return lo.Rate, "ladder"
	}
	f := (math.Log(limitMs) - math.Log(lo.P99)) / (math.Log(hi.P99) - math.Log(lo.P99))
	f = min(max(f, 0), 1)
	return lo.Rate + f*(hi.Rate-lo.Rate), "ladder"
}
