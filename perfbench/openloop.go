package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// reply is the part of a /query answer the benchmark reads.
type reply struct {
	Count     int   `json:"count"`
	ElapsedUs int64 `json:"elapsed_us"`
	Trace     *struct {
		Spans []struct {
			Kind  string `json:"kind"`
			DurNs uint64 `json:"dur_ns"`
		} `json:"spans"`
	} `json:"trace"`
}

// queryURLs renders each query as a /query?items= URL.
func queryURLs(base string, s *served) []string {
	urls := make([]string, len(s.queries))
	for i, q := range s.queries {
		items := make([]string, len(q))
		for j, it := range q {
			items[j] = strconv.FormatUint(uint64(it), 10)
		}
		urls[i] = base + "/query?items=" + strings.Join(items, ",")
	}
	return urls
}

// query sends one /query request; forced asks the server to capture and
// return the request's trace. A non-200 status is an error.
func query(c *http.Client, u string, forced bool) (reply, error) {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return reply{}, err
	}
	if forced {
		req.Header.Set("X-Fesia-Trace", "1")
	}
	resp, err := c.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	var rp reply
	if resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %s", resp.Status)
	} else {
		err = json.NewDecoder(resp.Body).Decode(&rp)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return rp, err
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		Timeout:   30 * time.Second,
	}
}

// drainCap bounds how late a queued request may start; a request still
// waiting for a connection this long after it was due is counted as failed
// rather than sent, so an overloaded step ends.
const drainCap = 5 * time.Second

// stepResult is one fixed-rate step of an open loop.
type stepResult struct {
	rate    float64
	lat     []float64  // per request, ms from its due time; +Inf if it failed
	server  []float64  // per answered request, the server's elapsed_us in ms
	http    []float64  // per answered request, round trip minus server time, ms
	late    []float64  // per request, how late the generator enqueued it, ms
	backlog [4]float64 // mean requests waiting for a connection, per quarter
	queue   []float64  // forced traces: admission queue span, ms
	strag   []float64  // forced traces: slowest shard span over the mean
	p99     float64
	growing bool
}

// meets reports whether the step kept p99 within limitMs without a growing
// backlog.
func (st *stepResult) meets(limitMs float64) bool { return st.p99 <= limitMs && !st.growing }

// openStep offers Poisson arrivals at rate for d, from a schedule drawn from
// seed, to independent users served over at most r.nproc keep-alive
// connections. Every request is timed from when it was due, so time spent
// waiting for a connection counts; how late the generator itself enqueued
// each request is recorded separately. Every answer is checked. forceEvery
// > 0 asks for a forced trace capture on every forceEvery-th request.
func openStep(r *run, s *served, urls []string, rate float64, d time.Duration, seed int64, forceEvery int) *stepResult {
	rng := rand.New(rand.NewSource(seed))
	var offs []time.Duration
	var qs []int
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		offs = append(offs, time.Duration(t*float64(time.Second)))
		qs = append(qs, rng.Intn(len(urls)))
	}
	n := len(offs)
	lat := make([]float64, n)
	srvMs := make([]float64, n)
	httpMs := make([]float64, n)
	late := make([]float64, n)
	depth := make([]int, n)
	queue := make([]float64, n)
	strag := make([]float64, n)
	due := make([]time.Time, n)

	client := newClient(r.nproc)
	defer client.CloseIdleConnections()
	jobs := make(chan int, n) // one slot per request, so the generator never blocks
	var wg sync.WaitGroup
	for range r.nproc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				lat[i], srvMs[i], httpMs[i], queue[i], strag[i] = math.Inf(1), math.NaN(), math.NaN(), math.NaN(), math.NaN()
				if time.Since(due[i]) > drainCap {
					r.refused()
					continue
				}
				forced := forceEvery > 0 && i%forceEvery == 0
				sent := time.Now()
				rp, err := query(client, urls[qs[i]], forced)
				done := time.Now()
				if err != nil {
					r.refused()
					continue
				}
				r.check(rp.Count == s.want[qs[i]])
				server := time.Duration(rp.ElapsedUs) * time.Microsecond
				lat[i] = ms(done.Sub(due[i]))
				srvMs[i] = ms(server)
				httpMs[i] = ms(done.Sub(sent) - server)
				parent := r.tr.add("http.request", -1, sent, done)
				r.tr.add("fesiaserve.query", parent, done.Add(-server), done)
				if rp.Trace != nil {
					var shards []float64
					for _, sp := range rp.Trace.Spans {
						switch sp.Kind {
						case "queue":
							queue[i] = float64(sp.DurNs) / 1e6
						case "shard":
							shards = append(shards, float64(sp.DurNs))
						}
					}
					if len(shards) > 0 {
						strag[i] = slices.Max(shards) / mean(shards)
					}
				}
			}
		}()
	}
	// The generator sleeps in nanosleep on its own OS thread: the runtime's
	// timers wake an idle process about a millisecond late, which would
	// be charged to every request.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now().Add(time.Millisecond)
	for i := range n {
		due[i] = start.Add(offs[i])
		if wait := time.Until(due[i]); wait > 0 {
			ts := syscall.NsecToTimespec(int64(wait))
			for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
			}
		}
		late[i] = ms(time.Since(due[i]))
		depth[i] = len(jobs)
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	st := &stepResult{rate: rate, lat: lat, late: late}
	st.server, st.http = finite(srvMs), finite(httpMs)
	st.queue, st.strag = finite(queue), finite(strag)
	for q := range 4 {
		part := depth[q*n/4 : (q+1)*n/4]
		var sum int
		for _, x := range part {
			sum += x
		}
		st.backlog[q] = float64(sum) / float64(max(len(part), 1))
	}
	// The backlog grows when the last quarter queues more than the second
	// and more requests wait than the step's rate clears within the latency
	// limit (by Little's law, their wait exceeds the limit).
	st.growing = st.backlog[3] > st.backlog[1] && st.backlog[3] > rate*limitMs/1e3
	st.p99 = percentile(sortedCopy(lat), 99)
	return st
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func finite(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			out = append(out, x)
		}
	}
	return out
}
