package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Times are nanoseconds since the run started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site. It is safe
// for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere, such as the
// server time a reply reports, placed at [start, end) of the run clock.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its children cover. Overlapping children count once, and children are
// clipped to the parent's interval. spans[i].ID must equal i.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, p := range spans {
		type iv struct{ lo, hi int64 }
		var cover []iv
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, p.Start), min(spans[k].End, p.End)
			if hi > lo {
				cover = append(cover, iv{lo, hi})
			}
		}
		slices.SortFunc(cover, func(a, b iv) int { return int(a.lo - b.lo) })
		var covered, curLo, curHi int64
		open := false
		for _, c := range cover {
			switch {
			case !open:
				curLo, curHi, open = c.lo, c.hi, true
			case c.lo <= curHi:
				curHi = max(curHi, c.hi)
			default:
				covered += curHi - curLo
				curLo, curHi = c.lo, c.hi
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[i] = (p.End - p.Start) - covered
	}
	return self
}

// spanSummary aggregates spans by name.
type spanSummary struct {
	Name            string
	Count           int
	TotalMs, SelfMs float64
	selfMs          []float64 // per span, for percentiles
}

// summarize groups spans by name with total and self time, in first-seen
// order.
func summarize(spans []span) []*spanSummary {
	self := selfTimes(spans)
	byName := map[string]*spanSummary{}
	var out []*spanSummary
	for i, s := range spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
			out = append(out, sum)
		}
		sum.Count++
		sum.TotalMs += float64(s.End-s.Start) / 1e6
		sum.SelfMs += float64(self[i]) / 1e6
	}
	return out
}

// writeSpans writes every span as one JSON line to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
