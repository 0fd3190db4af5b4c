package stats

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// serveMatrix registers a (shards × slots) grid of tagged shards on k — the
// stats shards of the executors a serving tier pins to each (document
// shard, slot) pair — indexed [shard][slot].
func serveMatrix(k *Sink, shards, slots int) [][]*Shard {
	m := make([][]*Shard, shards)
	for sh := range m {
		for range slots {
			s := k.NewShard()
			s.TagServeShard(sh)
			m[sh] = append(m[sh], s)
		}
	}
	return m
}

// TestServeMatrixSnapshotMergesSlots: Snapshot folds every tagged shard into
// its document shard's row, slots merged away, with the in-flight gauge
// derived from the enter/exit pair.
func TestServeMatrixSnapshotMergesSlots(t *testing.T) {
	k := New()
	m := serveMatrix(k, 2, 3)
	k.NewShard() // an untagged shard contributes no row
	// Shard 0: one part per slot; shard 1: parts on slot 0 only, one error.
	for slot := 0; slot < 3; slot++ {
		m[0][slot].EnterPart()
		m[0][slot].ExitPart(time.Duration(slot+1)*time.Millisecond, nil)
	}
	m[1][0].EnterPart()
	m[1][0].ExitPart(time.Millisecond, context.Canceled)
	m[1][0].EnterPart() // left in flight

	rows := k.Snapshot().ServeShards
	if len(rows) != 2 {
		t.Fatalf("snapshot has %d rows, want 2", len(rows))
	}
	r0, r1 := rows[0], rows[1]
	if r0.Shard != 0 || r0.Queries != 3 || r0.Errors != 0 || r0.InFlight != 0 {
		t.Fatalf("shard 0 row mismatch: %+v", r0)
	}
	if r0.Latency.Count != 3 || r0.Latency.SumNanos != uint64(6*time.Millisecond) {
		t.Fatalf("shard 0 latency mismatch: %+v", r0.Latency)
	}
	if r1.Shard != 1 || r1.Queries != 0 || r1.Errors != 1 || r1.InFlight != 1 || r1.Latency.Count != 0 {
		t.Fatalf("shard 1 row mismatch: %+v", r1)
	}
}

// TestServeMatrixConcurrentSingleWriters exercises the full (shard × slot)
// grid of tagged shards under its intended contract — one goroutine per
// slot, each writing every shard's cell of its own column — with snapshot
// readers merging concurrently. Run under -race this validates the relaxed
// load/store discipline end to end.
func TestServeMatrixConcurrentSingleWriters(t *testing.T) {
	const (
		shards  = 4
		slots   = 8
		perSlot = 2000
	)
	k := New()
	m := serveMatrix(k, shards, slots)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	// Snapshot readers race the writers. A mid-flight snapshot may observe
	// a query whose latency is not yet recorded (or vice versa) — the
	// equality only holds at quiescence — but every per-shard counter must
	// be monotone across consecutive snapshots, the in-flight gauge can
	// never exceed one part per slot, and nothing may overshoot the final
	// totals.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			prev := make([]ServeShardStats, shards)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, row := range k.Snapshot().ServeShards {
					p := prev[i]
					if row.Queries < p.Queries || row.Errors < p.Errors || row.Latency.Count < p.Latency.Count {
						t.Errorf("shard %d: counters went backwards: %+v after %+v", row.Shard, row, p)
					}
					if row.InFlight > slots {
						t.Errorf("shard %d: inflight %d exceeds %d slots", row.Shard, row.InFlight, slots)
					}
					prev[i] = row
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for slot := 0; slot < slots; slot++ {
		writers.Add(1)
		go func(slot int) {
			defer writers.Done()
			for i := 0; i < perSlot; i++ {
				for sh := 0; sh < shards; sh++ {
					s := m[sh][slot]
					s.EnterPart()
					if i%7 == 3 {
						s.ExitPart(0, context.DeadlineExceeded)
					} else {
						s.ExitPart(time.Duration(i%100)*time.Microsecond, nil)
					}
				}
			}
		}(slot)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	rows := k.Snapshot().ServeShards
	wantErr := uint64(0)
	wantOK := uint64(0)
	for i := 0; i < perSlot; i++ {
		if i%7 == 3 {
			wantErr++
		} else {
			wantOK++
		}
	}
	for _, row := range rows {
		if row.Queries != wantOK*slots || row.Errors != wantErr*slots {
			t.Fatalf("shard %d: queries=%d errors=%d, want %d/%d",
				row.Shard, row.Queries, row.Errors, wantOK*slots, wantErr*slots)
		}
		if row.InFlight != 0 {
			t.Fatalf("shard %d: inflight=%d after all parts exited", row.Shard, row.InFlight)
		}
	}
}

func TestServeMatrixWriteZeroAlloc(t *testing.T) {
	m := serveMatrix(New(), 2, 2)
	allocs := testing.AllocsPerRun(100, func() {
		m[1][1].EnterPart()
		m[1][1].ExitPart(time.Millisecond, nil)
		m[0][0].EnterPart()
		m[0][0].ExitPart(0, context.Canceled)
	})
	if allocs != 0 {
		t.Fatalf("part writes allocate %.1f per part, want 0", allocs)
	}
}

func TestExemplarStore(t *testing.T) {
	x := NewExemplarStore()
	if _, _, ok := x.Get(5); ok {
		t.Fatal("empty store returned an exemplar")
	}
	x.Put(7, 3*time.Millisecond)
	x.Put(9, 100*time.Microsecond)
	x.Put(11, 3500*time.Microsecond) // same bucket as 3ms: last writer wins
	snap := x.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d exemplars, want 2", len(snap))
	}
	// Bucket order: the 100µs exemplar first.
	if snap[0].TraceID != 9 || snap[0].Dur != 100*time.Microsecond {
		t.Fatalf("first exemplar mismatch: %+v", snap[0])
	}
	if snap[1].TraceID != 11 || snap[1].Dur != 3500*time.Microsecond {
		t.Fatalf("overwritten exemplar mismatch: %+v", snap[1])
	}
	allocs := testing.AllocsPerRun(100, func() { x.Put(3, time.Millisecond) })
	if allocs != 0 {
		t.Fatalf("Put allocates %.1f, want 0", allocs)
	}
}

func TestSinkSnapshotCarriesServeMatrixAndExemplars(t *testing.T) {
	k := New()
	m := serveMatrix(k, 2, 1)
	m[1][0].EnterPart()
	m[1][0].ExitPart(time.Millisecond, nil)
	x := NewExemplarStore()
	x.Put(0xabc, 2*time.Millisecond)
	k.SetServeExemplars(x)

	snap := k.Snapshot()
	if len(snap.ServeShards) != 2 || snap.ServeShards[1].Queries != 1 {
		t.Fatalf("snapshot serve shards mismatch: %+v", snap.ServeShards)
	}
	if len(snap.ServeExemplars) != 1 || snap.ServeExemplars[0].TraceID != 0xabc {
		t.Fatalf("snapshot exemplars mismatch: %+v", snap.ServeExemplars)
	}

	var sb strings.Builder
	if err := k.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		`fesia_serve_shard_queries_total{shard="1"} 1`,
		`fesia_serve_shard_queries_total{shard="0"} 0`,
		`fesia_serve_shard_inflight{shard="0"} 0`,
		`fesia_serve_latency_exemplar{`,
		`trace_id="0000000000000abc"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}

	mp := snap.Map()
	if _, ok := mp["serve_shards"]; !ok {
		t.Fatalf("expvar map missing serve_shards: %v", mp)
	}
	if _, ok := mp["serve_exemplars"]; !ok {
		t.Fatalf("expvar map missing serve_exemplars: %v", mp)
	}
}
