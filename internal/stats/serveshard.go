package stats

import (
	"sync/atomic"
	"time"
)

// Per-shard serving metrics. The tier's aggregate LatServe histogram answers
// "how slow is the tier?" but cannot answer "which shard is dragging it?" —
// a straggler shard hides inside the scatter-gather max. So the serving tier
// tags the stats shard of every executor it pins to (document shard k, slot
// s) with k, and records each scatter part into that shard's part block.
// The pinned executor is already that shard's single writer, so part updates
// are relaxed load/store pairs with no locks and no contention, and the
// (shard × slot) serve matrix is simply the set of tagged shards: Snapshot
// merges the slot dimension away, one row per document shard, for the
// `shard`-labelled Prometheus/expvar series.

// servePart is a tagged shard's scatter-part block: query/error counts, the
// enter/exit pair deriving the per-shard in-flight gauge, and a latency
// histogram of the parts that completed.
type servePart struct {
	queries  uint64
	errors   uint64
	enter    uint64
	exit     uint64
	sumNanos uint64
	lat      [LatBuckets]uint64
}

// TagServeShard marks s as the stats shard of an executor pinned to
// document shard k, so its scatter parts land in row k of
// Snapshot.ServeShards.
func (s *Shard) TagServeShard(k int) { atomic.StoreInt64(&s.tag, int64(k)+1) }

// EnterPart marks one scatter part starting — the increment half of the
// per-shard in-flight gauge.
func (s *Shard) EnterPart() { relaxedAdd(&s.part.enter, 1) }

// ExitPart marks one scatter part finishing: a successful part records its
// latency d, a failed one (cancellation, deadline, fault) counts an error.
func (s *Shard) ExitPart(d time.Duration, err error) {
	p := &s.part
	relaxedAdd(&p.exit, 1)
	if err != nil {
		relaxedAdd(&p.errors, 1)
		return
	}
	if d < 0 {
		d = 0
	}
	relaxedAdd(&p.queries, 1)
	relaxedAdd(&p.sumNanos, uint64(d))
	relaxedAdd(&p.lat[latBucket(d)], 1)
}

// ServeShardStats is one document shard's row of the serve matrix, merged
// across slots.
type ServeShardStats struct {
	Shard    int
	Queries  uint64 // scatter parts completed successfully on this shard
	Errors   uint64 // scatter parts that returned an error
	InFlight uint64 // parts currently executing (derived enter/exit gauge)
	Latency  LatencyStats
}

// add merges one tagged shard's part block into the row.
func (r *ServeShardStats) add(p *servePart) {
	// exit before enter: every exit follows its enter, so the difference
	// cannot underflow however the loads interleave with the writer.
	exit := atomic.LoadUint64(&p.exit)
	r.InFlight += atomic.LoadUint64(&p.enter) - exit
	r.Queries += atomic.LoadUint64(&p.queries)
	r.Errors += atomic.LoadUint64(&p.errors)
	r.Latency.SumNanos += atomic.LoadUint64(&p.sumNanos)
	for b := range p.lat {
		n := atomic.LoadUint64(&p.lat[b])
		r.Latency.Buckets[b] += n
		r.Latency.Count += n
	}
}

// ---------------------------------------------------------------------------
// Histogram exemplars.
// ---------------------------------------------------------------------------

// ExemplarStore links latency-histogram buckets to recent trace IDs: when the
// tracing layer retains a query, it stamps the query's trace ID into the
// bucket its end-to-end latency landed in. A dashboard reader going "what is
// sitting in that slow bucket?" can then jump straight from the histogram to
// a concrete retained trace on /debug/traces. Cells are plain atomics — last
// writer wins, which is exactly the "a recent example" contract.
type ExemplarStore struct {
	ids  [LatBuckets]atomic.Uint64 // trace ID per bucket; 0 = none yet
	durs [LatBuckets]atomic.Uint64 // the exemplar's observed nanoseconds
}

// NewExemplarStore returns an empty store.
func NewExemplarStore() *ExemplarStore { return &ExemplarStore{} }

// Put records trace id as the exemplar of the bucket holding d.
func (x *ExemplarStore) Put(id uint64, d time.Duration) {
	if d < 0 {
		d = 0
	}
	b := latBucket(d)
	x.durs[b].Store(uint64(d))
	x.ids[b].Store(id)
}

// Get returns the exemplar of one bucket, or ok=false when none was recorded.
func (x *ExemplarStore) Get(bucket int) (id uint64, d time.Duration, ok bool) {
	id = x.ids[bucket].Load()
	if id == 0 {
		return 0, 0, false
	}
	return id, time.Duration(x.durs[bucket].Load()), true
}

// LatencyExemplar is one bucket's exemplar in a snapshot.
type LatencyExemplar struct {
	Bucket  int           // power-of-two bucket index (see LatBuckets)
	TraceID uint64        // retained trace whose latency landed in the bucket
	Dur     time.Duration // that trace's observed end-to-end latency
}

// Snapshot returns every recorded exemplar, in bucket order.
func (x *ExemplarStore) Snapshot() []LatencyExemplar {
	var out []LatencyExemplar
	for b := 0; b < LatBuckets; b++ {
		if id, d, ok := x.Get(b); ok {
			out = append(out, LatencyExemplar{Bucket: b, TraceID: id, Dur: d})
		}
	}
	return out
}
