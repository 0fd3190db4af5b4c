package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"testing"
	"time"
)

func TestGeneratedInputsAreReproducible(t *testing.T) {
	pairsDigest := func(seed int64) [32]byte {
		var lists [][]uint32
		for _, p := range genPairs(seed) {
			lists = append(lists, p.a, p.b)
		}
		return digestLists(lists...)
	}
	graphDigest := func(seed int64) [32]byte {
		g := genGraph(seed)
		lists := make([][]uint32, g.NumVertices())
		for u := range lists {
			lists[u] = g.Neighbors(u)
		}
		return digestLists(lists...)
	}
	searchDigest := func(seed int64) [32]byte {
		s := genSearch(seed)
		want := make([]uint32, 0, 2*len(s.want))
		for i := range s.want {
			want = append(want, uint32(s.want[i]), uint32(s.elems[i]))
		}
		return digestLists(append(append(s.lists, s.queries...), want)...)
	}
	for name, digest := range map[string]func(int64) [32]byte{
		"pairs": pairsDigest, "triangles": graphDigest, "search": searchDigest,
	} {
		if digest(3) != digest(3) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if digest(3) == digest(4) {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
	}
}

// digestLists hashes list lengths and contents, for checking that inputs
// are reproducible.
func digestLists(lists ...[]uint32) [32]byte {
	h := sha256.New()
	var buf [4]byte
	for _, l := range lists {
		binary.LittleEndian.PutUint32(buf[:], uint32(len(l)))
		h.Write(buf[:])
		for _, x := range l {
			binary.LittleEndian.PutUint32(buf[:], x)
			h.Write(buf[:])
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func TestPercentileAndTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	// 1000 samples support p98.9, but the tail stops at p90.
	pct, v, ok := tail(xs)
	if !ok || v != 900 || pct != 90 {
		t.Errorf("tail of 1000 = p%v %v %v, want p90 900 true", pct, v, ok)
	}
	// 40 samples: the tail is the 11th largest, with exactly 10 beyond.
	pct, v, ok = tail(xs[:40])
	if !ok || v != 30 || pct != 75 {
		t.Errorf("tail of 40 = p%v %v %v, want p75 30 true", pct, v, ok)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Error("tail of 10 samples should not exist")
	}
	// Below 100 samples p90 has fewer than 10 beyond it.
	if pct, v, _ := tail(xs[:80]); pct != 87.5 || v != 70 {
		t.Errorf("tail of 80 = p%v %v, want p87.5 70", pct, v)
	}
	// A failed request is +Inf and so misses every limit.
	withFail := sortedCopy(append(slices.Clone(xs[:99]), math.Inf(1)))
	if !math.IsInf(percentile(withFail, 100), 1) || percentile(withFail, 99) != 99 {
		t.Error("a failed request must sort above every latency")
	}
}

func TestWindowTailIgnoresASlowWindow(t *testing.T) {
	fast := make([]float64, 20)
	slow := make([]float64, 20)
	for i := range fast {
		fast[i] = float64(i + 1)   // 1..20
		slow[i] = float64(i + 100) // 100..119
	}
	// 60 samples support p83.33 (10 beyond the 50th). Each window's p83.33
	// is its 17th value; the slow window's 116 is outvoted.
	pct, v, n := windowTail([][]float64{fast, slow, fast})
	if math.Abs(pct-250.0/3) > 1e-9 || v != 17 || n != 60 {
		t.Errorf("windowTail = p%v %v, n %d; want p83.33 17, 60", pct, v, n)
	}
	if _, v, _ := windowTail([][]float64{fast[:5], fast[:5]}); !math.IsNaN(v) {
		t.Errorf("10 samples have no tail, got %v", v)
	}
}

func TestPassRate(t *testing.T) {
	// Class 0: 100 elements at a median of 2 ms; its 50 ms outlier does not
	// count. Class 1: 300 elements at 8 ms. One pass is 400 elements in 10 ms.
	lat := map[int][]float64{0: {2, 50, 1, 2, 3}, 1: {8}}
	if got := passRate(lat, map[int]int{0: 100, 1: 300}); math.Abs(got-40_000) > 1e-6 {
		t.Errorf("passRate = %v, want 40000 per second", got)
	}
}

func TestMaxQPSInterpolation(t *testing.T) {
	const limit = 10.0
	steps := []rateStep{
		{Rate: 100, P99: 2, Meets: true},
		{Rate: 200, P99: 5, Meets: true},
		{Rate: 300, P99: 20, Meets: false},
		{Rate: 400, P99: 80, Meets: false},
	}
	// log(p99) is linear between (200, 5) and (300, 20): 10 is halfway.
	if q, where := maxQPS(steps, limit); math.Abs(q-250) > 1e-9 || where != "ladder" {
		t.Errorf("maxQPS = %v %s, want 250 ladder", q, where)
	}
	// A small move of the crossing moves the answer a little, not a step.
	moved := slices.Clone(steps)
	moved[2].P99 = 21
	if q, _ := maxQPS(moved, limit); q >= 250 || q < 240 {
		t.Errorf("maxQPS with p99 21 = %v, want just below 250", q)
	}
	// A step that failed only through a growing backlog pins the rate below.
	backlog := slices.Clone(steps)
	backlog[2] = rateStep{Rate: 300, P99: 8, Meets: false}
	if q, _ := maxQPS(backlog, limit); q != 200 {
		t.Errorf("maxQPS with a backlog-only failure = %v, want 200", q)
	}
	// A failed request makes p99 infinite: the crossing is at the step below.
	inf := slices.Clone(steps)
	inf[2].P99 = math.Inf(1)
	if q, _ := maxQPS(inf, limit); q != 200 {
		t.Errorf("maxQPS with an infinite p99 = %v, want 200", q)
	}
	if q, where := maxQPS(steps[:2], limit); q != 200 || where != "above" {
		t.Errorf("maxQPS with no failing step = %v %s, want 200 above", q, where)
	}
	if q, where := maxQPS(steps[2:], limit); q != 150 || where != "below" {
		t.Errorf("maxQPS failing at the first step = %v %s, want 150 below", q, where)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps 1: covered 10..50 once
		{ID: 3, Parent: 0, Start: 90, End: 120}, // clipped to the parent at 100
		{ID: 4, Parent: 2, Start: 25, End: 35},  // grandchild: counts against 2 only
		{ID: 5, Parent: -1, Start: 200, End: 210},
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10, 10}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	sums := summarize(spans)
	if len(sums) != 1 || sums[0].Count != 6 {
		t.Fatalf("summarize grouped %d names", len(sums))
	}
}

func TestTracerNilIsFree(t *testing.T) {
	var tr *tracer
	if id := tr.begin("x", -1); id != -1 {
		t.Errorf("nil tracer begin = %d", id)
	}
	tr.end(0)
	tr.add("x", -1, time.Now(), time.Now())
}

// TestOpenLoopTimesFromDue stalls the server on the first request: every
// request due during the stall must be charged the wait, not only the one
// that hit it.
func TestOpenLoopTimesFromDue(t *testing.T) {
	first := make(chan struct{}, 1)
	first <- struct{}{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		select {
		case <-first:
			time.Sleep(100 * time.Millisecond)
		default:
		}
		fmt.Fprint(w, `{"count":7,"elapsed_us":1}`)
	}))
	defer srv.Close()
	r := &run{nproc: 1, metrics: map[string]metric{}, units: map[string]string{}}
	s := &served{queries: [][]uint32{{1, 2}}, want: []int{7}}
	st := openStep(r, s, []string{srv.URL}, 1000, 200*time.Millisecond, 1, 0)
	slow := 0
	for _, l := range st.lat {
		if l > 50 {
			slow++
		}
	}
	if slow < 30 {
		t.Errorf("%d of %d requests charged more than 50 ms; the stall should delay every request due in it", slow, len(st.lat))
	}
	if r.wrong.Load() != 0 || r.attempted.Load() != int64(len(st.lat)) {
		t.Errorf("attempted %d wrong %d for %d requests", r.attempted.Load(), r.wrong.Load(), len(st.lat))
	}
	if p := percentile(sortedCopy(st.late), 50); p > 5 {
		t.Errorf("generator median lateness %.3f ms; it should not wait for replies", p)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, want at least 2", len(doc.Workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: unknown or bad why", w.Name)
		}
	}
	check := func(kind string, got []def, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
