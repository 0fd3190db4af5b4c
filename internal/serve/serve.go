// Package serve is the sharded serving tier over the FESIA query engine:
// the robustness layer that turns per-query speed (PAPER.md Section VII-F)
// into served throughput that survives overload and reload.
//
// A Tier partitions the corpus into document shards, each with pinned
// executors and stats shards (extending the engine's single-writer
// discipline), and answers conjunctive queries by scatter-gather on the
// shared worker pool with deadline propagation into the cancellable query
// paths. Around that core sit four robustness mechanisms:
//
//   - admission control: a slot semaphore with a bounded wait queue,
//     rejecting with a typed *OverloadError once depth or wait budget is
//     exceeded (admission.go);
//   - load shedding: when the p99 of admitted queries breaches the target,
//     a growing fraction of incoming traffic is dropped before admission,
//     recovering when latency does (shed.go);
//   - hot snapshot swap: an atomic pointer flip to a freshly built corpus
//     epoch, the old one retired only after in-flight queries drain
//     (core.DrainGroup); a failed load leaves the old epoch serving;
//   - graceful shutdown: stop admitting, drain in-flight queries, leave the
//     stats sink consistent for a final flush.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fesia/internal/core"
	"fesia/internal/stats"
	"fesia/internal/trace"
)

// Config shapes a Tier. The zero value of every field selects a sensible
// default (see each field); the zero Config is usable.
type Config struct {
	// Shards is the number of document shards. Default: min(4, GOMAXPROCS).
	Shards int
	// MaxConcurrent bounds queries executing at once (the admission slots).
	// Default: 2 × GOMAXPROCS.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a slot; the MaxQueue+1st waiter
	// is rejected immediately. Default: 2 × MaxConcurrent.
	MaxQueue int
	// MaxQueueWait bounds how long one request may wait for a slot.
	// Default: 50ms.
	MaxQueueWait time.Duration
	// ShedTargetP99 is the latency objective steering the load shedder: the
	// windowed p99 of admitted queries above it grows the drop fraction.
	// Default: 25ms. Negative disables shedding.
	ShedTargetP99 time.Duration
	// ShedInterval is the shedder's control-loop period. Default: 100ms.
	ShedInterval time.Duration
	// ShedMinSamples is the fewest admitted queries per window that still
	// steer the shedder. Default: 32.
	ShedMinSamples int
	// MaxShedFraction caps the drop probability so some traffic always
	// probes the true latency. Default: 0.95.
	MaxShedFraction float64
	// Build is the FESIA build configuration for every shard's sets.
	// Zero value: core.DefaultConfig().
	Build core.Config
	// Pool runs the scatter parts. Default: core.SharedPool().
	Pool *core.Pool
	// TraceSample enables per-query tracing with head sampling: one query
	// in TraceSample per admission slot is retained into the trace rings.
	// 0 disables head sampling. Tracing as a whole is active when either
	// TraceSample or SlowQuery is set; when both are zero (the default) the
	// tier carries no tracer and every trace seam costs one nil check.
	TraceSample int
	// SlowQuery is the tail-capture threshold: every query whose
	// end-to-end latency (including admission wait) reaches it is retained
	// in full and appended to the bounded slow-query log. 0 disables tail
	// capture.
	SlowQuery time.Duration
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = min(4, runtime.GOMAXPROCS(0))
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 2 * c.MaxConcurrent
	}
	if c.MaxQueueWait <= 0 {
		c.MaxQueueWait = 50 * time.Millisecond
	}
	if c.ShedTargetP99 == 0 {
		c.ShedTargetP99 = 25 * time.Millisecond
	}
	if c.ShedInterval <= 0 {
		c.ShedInterval = 100 * time.Millisecond
	}
	if c.ShedMinSamples <= 0 {
		c.ShedMinSamples = 32
	}
	if c.MaxShedFraction <= 0 || c.MaxShedFraction >= 1 {
		c.MaxShedFraction = 0.95
	}
	if c.Pool == nil {
		c.Pool = core.SharedPool()
	}
	return c
}

// slotState is one admission slot's tier state, written only by the one query
// holding the slot: the scatter-gather scratch (per-shard counts and errors,
// each written by its own part), the slot owner's stats shard, and its tier
// trace cell (nil without a tracer).
type slotState struct {
	counts []int
	errs   []error
	st     *stats.Shard
	tr     *trace.Cell
}

// Tier is the sharded serving layer. Construct with NewTier; safe for
// concurrent use.
type Tier struct {
	cfg  Config
	lim  *limiter
	shed *shedder
	sink *stats.Sink

	// current corpus epoch, hot-swappable; see Swap.
	epoch atomic.Pointer[epoch]

	// exs[shard*MaxConcurrent+slot] is the executor pinned to that (shard,
	// slot) pair; setsBufs is its set-pointer scratch. Both survive swaps —
	// they hold query scratch, never corpus data. Each executor's stats
	// shard is tagged with its document shard and records the pair's
	// scatter parts: the `shard`-labelled Prometheus/expvar series.
	exs      []*core.Executor
	setsBufs [][]*core.Set
	slots    []slotState // per-admission-slot state

	// tracer is the per-query tracing layer; nil unless Config enabled it.
	// exemplars links LatServe buckets to retained trace IDs.
	tracer    *trace.Tracer
	exemplars *stats.ExemplarStore

	// partDelay is a test hook injecting latency into one scatter part —
	// how the slow-shard forensics tests fabricate a straggler.
	partDelay func(shard int)

	swapMu sync.Mutex // serializes Swap; gen is owned by it
	gen    uint64

	closed atomic.Bool
	stop   chan struct{} // closes the shed control loop
	tickWG sync.WaitGroup
}

// NewTier builds a tier over lists, the corpus as one sorted posting list of
// document IDs per item (index = item id; empty lists are fine). The global
// stats sink is used when enabled (fesia.EnableStats), so the tier's
// counters ride the process /metrics; otherwise a private sink still drives
// the load shedder.
func NewTier(lists [][]uint32, cfg Config) (*Tier, error) {
	cfg = cfg.withDefaults()
	t := &Tier{cfg: cfg, stop: make(chan struct{})}
	t.sink = core.StatsSink()
	if t.sink == nil {
		t.sink = stats.New()
	}
	e, err := buildEpoch(lists, cfg.Shards, cfg.Build, 0)
	if err != nil {
		return nil, err
	}
	t.epoch.Store(e)
	t.lim = newLimiter(cfg.MaxConcurrent, cfg.MaxQueue, cfg.MaxQueueWait)
	t.shed = newShedder(cfg.ShedTargetP99, cfg.MaxShedFraction, cfg.ShedMinSamples)
	if cfg.TraceSample > 0 || cfg.SlowQuery > 0 {
		t.tracer = trace.New(trace.Config{
			Shards:  cfg.Shards,
			Slots:   cfg.MaxConcurrent,
			SampleN: cfg.TraceSample,
			Slow:    cfg.SlowQuery,
		})
		t.exemplars = stats.NewExemplarStore()
		t.sink.SetServeExemplars(t.exemplars)
	}
	t.exs = make([]*core.Executor, cfg.Shards*cfg.MaxConcurrent)
	t.setsBufs = make([][]*core.Set, len(t.exs))
	for i := range t.exs {
		shard, slot := i/cfg.MaxConcurrent, i%cfg.MaxConcurrent
		ex := core.NewExecutor()
		ex.EnableStats(t.sink)
		ex.StatsShard().TagServeShard(shard)
		if t.tracer != nil {
			ex.SetTraceCell(t.tracer.ShardCell(shard, slot))
		}
		t.exs[i] = ex
	}
	t.slots = make([]slotState, cfg.MaxConcurrent)
	for s := range t.slots {
		t.slots[s] = slotState{
			counts: make([]int, cfg.Shards),
			errs:   make([]error, cfg.Shards),
			st:     t.sink.NewShard(),
		}
		if t.tracer != nil {
			t.slots[s].tr = t.tracer.TierCell(s)
		}
	}
	if cfg.ShedTargetP99 > 0 {
		t.tickWG.Add(1)
		go t.shedLoop()
	}
	return t, nil
}

// shedLoop is the shedder's control loop: every ShedInterval it feeds the
// cumulative LatServe histogram to the shedder, which differences it into
// the last window and steers the drop fraction.
func (t *Tier) shedLoop() {
	defer t.tickWG.Done()
	ticker := time.NewTicker(t.cfg.ShedInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-ticker.C:
			snap := t.sink.Snapshot()
			t.shed.tick(snap.Latency(stats.LatServe))
		}
	}
}

// acquireEpoch takes a drain reference on the current epoch, with the
// pointer-recheck loop that makes the swap's flip-then-retire safe (see
// core.DrainGroup).
func (t *Tier) acquireEpoch() *epoch {
	for {
		e := t.epoch.Load()
		e.drain.Acquire()
		if t.epoch.Load() == e {
			return e
		}
		e.drain.Release()
	}
}

// QueryCount answers one conjunctive query — the number of documents
// containing every item — through the full serving path: shed check,
// admission, scatter-gather over the shards, deadline propagation. It
// returns *OverloadError (matching ErrOverload) on shed or admission
// rejection, ErrShuttingDown after Shutdown, and the context error when the
// deadline expires first.
func (t *Tier) QueryCount(ctx context.Context, items ...uint32) (int, error) {
	n, _, err := t.queryCount(ctx, false, items)
	return n, err
}

// QueryCountTraced is QueryCount with forced trace capture: the query's
// trace is retained regardless of sampling, and its rendered span breakdown
// is returned alongside the count (the X-Fesia-Trace: 1 path). The breakdown
// is nil when the tier has no tracer, or when the query was rejected before
// admission (there is nothing to attribute yet).
func (t *Tier) QueryCountTraced(ctx context.Context, items ...uint32) (int, *trace.Captured, error) {
	return t.queryCount(ctx, true, items)
}

func (t *Tier) queryCount(ctx context.Context, forced bool, items []uint32) (int, *trace.Captured, error) {
	if t.closed.Load() {
		return 0, nil, ErrShuttingDown
	}
	if t.shed.shouldShed() {
		t.sink.Inc(stats.CtrServeShed)
		return 0, nil, errShed
	}
	tr := t.tracer
	var arrival time.Time
	if tr != nil {
		arrival = time.Now()
	}
	slot, err := t.lim.acquire(ctx, t.sink)
	if err != nil {
		var oe *OverloadError
		if errors.As(err, &oe) {
			t.sink.Inc(stats.CtrServeRejected)
			switch oe.Reason {
			case ReasonQueueFull:
				t.sink.Inc(stats.CtrServeRejQueueFull)
			case ReasonQueueWait:
				t.sink.Inc(stats.CtrServeRejQueueWait)
			}
		}
		return 0, nil, err
	}
	defer t.lim.release(slot)
	s := &t.slots[slot]
	s.st.Inc(stats.CtrServeAdmitted)
	start := time.Now()
	if tr != nil {
		tr.Begin(slot, arrival)
		s.tr.Span(trace.KindQueue, trace.ArmNone, 0,
			arrival, start.Sub(arrival), 0, 0)
	}
	n, err := t.scatter(ctx, slot, items)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.st.Inc(stats.CtrServeDeadline)
		}
		// Failed queries still commit their trace — a deadline expiry is
		// exactly the slow query the tail capture exists for.
		capd := t.commitTrace(slot, forced, trace.FlagError, len(items), 0, arrival, start, time.Since(start))
		return 0, capd, err
	}
	// Only successful queries steer the shedder: a deadline expiry's
	// latency measures the deadline, not the service. The one clock read
	// here closes the latency observation AND the trace's scatter/root
	// spans — tracing must not add reads of its own past the arrival stamp.
	el := time.Since(start)
	s.st.Observe(stats.LatServe, el)
	capd := t.commitTrace(slot, forced, 0, len(items), n, arrival, start, el)
	return n, capd, nil
}

// commitTrace closes the tier-level spans (scatter and root, off the clock
// reads the stats path already paid for), decides retention and (for forced
// captures) renders the breakdown. Called by the slot owner before release;
// no-op without a tracer, allocation-free unless forced.
func (t *Tier) commitTrace(slot int, forced bool, flags uint8, nitems, count int, arrival, start time.Time, el time.Duration) *trace.Captured {
	tr, s := t.tracer, &t.slots[slot]
	if tr == nil {
		return nil
	}
	d := el + start.Sub(arrival)
	cell := s.tr
	if cell.Truncated() {
		flags |= trace.FlagTruncated
	}
	cell.Span(trace.KindScatter, trace.ArmNone, flags&trace.FlagError,
		start, el, uint64(t.cfg.Shards), 0)
	cell.Span(trace.KindQuery, trace.ArmNone, flags,
		arrival, d, uint64(nitems), uint64(count))
	v := tr.Finish(slot, d, forced)
	switch v.Reason {
	case trace.ReasonSampled:
		s.st.Inc(stats.CtrTraceSampled)
	case trace.ReasonSlow:
		s.st.Inc(stats.CtrTraceSlow)
	case trace.ReasonForced:
		s.st.Inc(stats.CtrTraceForced)
	default:
		return nil
	}
	t.exemplars.Put(v.ID, d)
	if forced {
		return tr.Capture(slot, v)
	}
	return nil
}

// scatter fans the query out to every shard on the pool and sums the counts.
// Parts write only their own cells of the slot's gather scratch (and the
// stats shard and trace cell of their own (shard × slot) executor); the
// first error (by shard order) wins, matching the deterministic
// single-shard path. The tier-level scatter span is closed by commitTrace
// off the caller's clock reads — this function reads no clocks of its own.
func (t *Tier) scatter(ctx context.Context, slot int, items []uint32) (int, error) {
	e := t.acquireEpoch()
	defer e.drain.Release()
	ns := len(e.shards)
	if ns == 1 {
		return t.queryPart(ctx, e, 0, slot, items)
	}
	g := &t.slots[slot]
	t.cfg.Pool.Do(ns, func(part int) {
		g.counts[part], g.errs[part] = t.queryPart(ctx, e, part, slot, items)
	})
	total := 0
	for p := 0; p < ns; p++ {
		if perr := g.errs[p]; perr != nil {
			return 0, perr
		}
		total += g.counts[p]
	}
	return total, nil
}

// queryPart runs one scatter part: the query against document shard `part`
// on the executor pinned to (part, slot). It records the part into that
// executor's tagged stats shard and, when tracing, arms the (shard × slot)
// staging cell before the executor runs and appends the part's span after.
func (t *Tier) queryPart(ctx context.Context, e *epoch, part, slot int, items []uint32) (int, error) {
	i := part*t.cfg.MaxConcurrent + slot
	ex := t.exs[i]
	tr := t.tracer
	if tr != nil {
		tr.ShardCell(part, slot).Reset(t.slots[slot].tr.Base())
	}
	ps := time.Now()
	st := ex.StatsShard()
	st.EnterPart()
	if d := t.partDelay; d != nil {
		d(part)
	}
	n, err := queryShard(ctx, e.shards[part], ex, &t.setsBufs[i], items)
	el := time.Since(ps)
	st.ExitPart(el, err)
	if tr != nil {
		var flags uint8
		if err != nil {
			flags = trace.FlagError
		}
		tr.ShardCell(part, slot).Span(trace.KindShard, trace.ArmNone, flags,
			ps, el, uint64(n), 0)
	}
	return n, err
}

// Swap atomically replaces the corpus with one built from lists (the same
// shape NewTier takes). The fresh epoch is fully built and validated before
// the pointer flips — any build error leaves the old corpus serving
// untouched — and the old epoch is retired only after every in-flight query
// on it has drained. Returns the new generation number. ctx bounds the
// drain wait: on expiry the swap is already published and the error reports
// the unfinished drain.
func (t *Tier) Swap(ctx context.Context, lists [][]uint32) (uint64, error) {
	t.swapMu.Lock()
	defer t.swapMu.Unlock()
	if t.closed.Load() {
		return 0, ErrShuttingDown
	}
	gen := t.gen + 1
	fresh, err := buildEpoch(lists, t.cfg.Shards, t.cfg.Build, gen)
	if err != nil {
		t.sink.Inc(stats.CtrServeSwapErrors)
		return 0, err
	}
	t.gen = gen
	old := t.epoch.Swap(fresh)
	old.drain.Retire()
	select {
	case <-old.drain.Drained():
	case <-ctx.Done():
		return gen, fmt.Errorf("serve: swap to generation %d published, but the old epoch has not drained: %w", gen, ctx.Err())
	}
	t.sink.Inc(stats.CtrServeSwaps)
	return gen, nil
}

// SwapFromReader is Swap loading the corpus from a snapshot stream written
// by fesia.WriteCorpus / core.WriteCorpus: set i is item i's posting set.
// The stream is fully read, checksummed and rebuilt before anything flips;
// a truncated or corrupted snapshot counts a swap error and leaves the old
// corpus serving — the all-or-nothing contract the chaos tests pin down.
func (t *Tier) SwapFromReader(ctx context.Context, r io.Reader) (uint64, error) {
	sets, err := core.ReadCorpus(r)
	if err != nil {
		t.sink.Inc(stats.CtrServeSwapErrors)
		return 0, fmt.Errorf("serve: loading corpus snapshot: %w", err)
	}
	lists := make([][]uint32, len(sets))
	for i, s := range sets {
		lists[i] = s.Elements()
	}
	return t.Swap(ctx, lists)
}

// SwapFromFile is SwapFromReader over a snapshot file.
func (t *Tier) SwapFromFile(ctx context.Context, path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		t.sink.Inc(stats.CtrServeSwapErrors)
		return 0, fmt.Errorf("serve: opening corpus snapshot: %w", err)
	}
	defer f.Close()
	return t.SwapFromReader(ctx, f)
}

// Shutdown gracefully stops the tier: new queries fail fast with
// ErrShuttingDown, the shed control loop stops, and Shutdown blocks until
// every in-flight query has finished (all admission slots reclaimed) or ctx
// expires. The stats sink is left consistent for a final flush by the
// caller. Idempotent; concurrent calls race the drain harmlessly.
func (t *Tier) Shutdown(ctx context.Context) error {
	if t.closed.CompareAndSwap(false, true) {
		close(t.stop)
	}
	t.tickWG.Wait()
	return t.lim.drain(ctx)
}

// Generation returns the current corpus generation (0 at construction,
// bumped by every successful Swap).
func (t *Tier) Generation() uint64 { return t.epoch.Load().gen }

// NumShards returns the tier's shard count.
func (t *Tier) NumShards() int { return t.cfg.Shards }

// MaxConcurrent returns the admission slot count.
func (t *Tier) MaxConcurrent() int { return t.cfg.MaxConcurrent }

// ShedFraction returns the shedder's current drop probability — 0 in the
// healthy steady state.
func (t *Tier) ShedFraction() float64 { return t.shed.fraction() }

// Tracer returns the tier's tracing layer, or nil when tracing was not
// enabled in the Config. The HTTP layer mounts its Handler/SlowHandler as
// the /debug/traces and /debug/slow admin endpoints.
func (t *Tier) Tracer() *trace.Tracer { return t.tracer }

// Stats returns a merged snapshot of the sink the tier records into (the
// global sink when stats were enabled at construction).
func (t *Tier) Stats() stats.Snapshot { return t.sink.Snapshot() }
