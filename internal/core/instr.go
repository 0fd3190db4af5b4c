package core

import (
	"sync/atomic"
	"time"

	"fesia/internal/planner"
	"fesia/internal/stats"
	"fesia/internal/trace"
)

// Instrument wiring. Every single writer of the query engine — an
// executor's own scratch and each of its parallel worker slots — carries one
// instrument context (instr): the stats shard it records into, the planner
// handle it decides and learns through, its kernel-sample sequence, and an
// optional trace staging cell. One function, instrument, builds every
// context; NewExecutor, the worker slots, the pooled checkout, EnableStats,
// EnablePlanner, DisablePlanner and SetTraceCell all go through it. A
// context's parts are written only by the goroutine running its writer, so
// the hot loops update plain padded memory with relaxed atomics and never
// contend. Every instrumented site sits behind a nil check on the context's
// part — with an instrument off (the default) the hot paths cost exactly
// that predictable branch and nothing else.
//
// Sources without single-writer discipline — the shared worker pool, the
// snapshot codecs, set construction — record through the process-global
// sink's multi-writer shard, loaded from an atomic pointer per event (per Do
// call / per file / per set, never per element).

// instr is one single writer's instrument context. The zero value is every
// instrument off.
type instr struct {
	sink  *stats.Sink     // the sink st belongs to (nil = stats off)
	st    *stats.Shard    // single-writer stats shard
	model *planner.Model  // the model plan belongs to (nil = planner off)
	plan  *planner.Handle // single-writer planner handle
	tr    *trace.Cell     // trace staging cell (nil = not traced)
	qseq  uint64          // merge-query sequence for kernel sampling
}

// instrument builds a writer's context for the given sink, planner model and
// trace cell — the one seam through which instruments attach. Parts of old
// already bound to the same sink or model are kept, so re-attaching is
// idempotent and every shard keeps exactly one writer; a part whose sink or
// model goes away is released back to it for the next writer to reuse, so
// its counts are kept and nothing registers twice.
func instrument(old instr, sink *stats.Sink, m *planner.Model, tr *trace.Cell) instr {
	in := instr{sink: sink, st: old.st, model: m, plan: old.plan, tr: tr, qseq: old.qseq}
	if old.sink != sink {
		if old.st != nil {
			old.sink.Release(old.st)
		}
		in.st = nil
		if sink != nil {
			in.st = sink.NewShard()
		}
	}
	if old.model != m {
		if old.plan != nil {
			old.model.Release(old.plan)
		}
		in.plan = nil
		if m != nil {
			in.plan = m.NewHandle()
		}
	}
	return in
}

// attach rebinds the executor's own writer and every worker slot through
// instrument. Only the executor's own writer is ever traced.
func (e *Executor) attach(sink *stats.Sink, m *planner.Model, tr *trace.Cell) {
	e.in = instrument(e.in, sink, m, tr)
	for i := range e.workers {
		e.workers[i].in = instrument(e.workers[i].in, sink, m, nil)
	}
}

// attachGlobal attaches the process-global sink and planner model to an
// executor not yet carrying its own — the path of NewExecutor and of every
// pooled checkout (a pooled executor may predate EnableStats or
// EnablePlanner).
func (e *Executor) attachGlobal() {
	sink, m := e.in.sink, e.in.model
	if sink == nil {
		sink = globalStats.Load()
	}
	if m == nil {
		m = planner.Active()
	}
	if sink != e.in.sink || m != e.in.model {
		e.attach(sink, m, e.in.tr)
	}
}

// release hands every writer's stats shard and planner handle back to their
// sink and model — the finalizer of the pooled default executors, so the GC
// dropping one leaks no registered shard.
func (e *Executor) release() { e.attach(nil, nil, nil) }

// ---------------------------------------------------------------------------
// Stats.
// ---------------------------------------------------------------------------

// globalStats is the process-wide sink, set once by EnableStats. Executors
// created after EnableStats attach to it automatically (including the pooled
// default executors behind the package-level wrappers, which attach on
// checkout).
var globalStats atomic.Pointer[stats.Sink]

// EnableStats installs s as the process-global observability sink. Call once
// at startup, before building executors; executors created earlier keep
// running uninstrumented until EnableStats is called on them directly.
// Passing nil stops future attachments but does not detach live executors.
func EnableStats(s *stats.Sink) { globalStats.Store(s) }

// StatsSink returns the process-global sink, or nil when stats are disabled.
func StatsSink() *stats.Sink { return globalStats.Load() }

// statsInc bumps a counter on the global sink's multi-writer shard, if stats
// are enabled. For per-operation events only (snapshot codec outcomes, pool
// bookkeeping) — never per element.
func statsInc(c stats.Counter) {
	if s := globalStats.Load(); s != nil {
		s.Inc(c)
	}
}

// statsOutcome records one operation's success-or-error outcome pair.
func statsOutcome(err error, ok, bad stats.Counter) {
	if err != nil {
		statsInc(bad)
		return
	}
	statsInc(ok)
}

// EnableStats attaches the executor (and its existing parallel worker slots)
// to a sink. Each writer gets its own single-writer shard, so the parallel
// paths record without contention. Calling it again is a no-op; an executor
// records into at most one sink for its whole life.
func (e *Executor) EnableStats(s *stats.Sink) {
	if s == nil || e.in.sink != nil {
		return
	}
	e.attach(s, e.in.model, e.in.tr)
}

// Stats returns a merged snapshot of the sink this executor records into
// (the whole sink's view, not just this executor's share). The zero Snapshot
// is returned when stats are disabled.
func (e *Executor) Stats() stats.Snapshot {
	if e.in.sink == nil {
		return stats.Snapshot{}
	}
	return e.in.sink.Snapshot()
}

// StatsShard returns the stats shard of the executor's own writer, or nil
// when stats are disabled. The serving tier records each scatter part into
// the shard of the executor it pinned to the part — that executor's
// goroutine is the shard's single writer.
func (e *Executor) StatsShard() *stats.Shard { return e.in.st }

// kernelShard returns the shard the current merge query's kernel-dispatch
// records go to, advancing the writer's query sequence: the writer's own
// shard for 1 in stats.KernelSampleRate merge queries (or batch merge
// candidates), nil otherwise and always with stats disabled. The scalar
// counters — segment pairs, segments scanned, latencies — are never sampled;
// they stay exact on every query. Per-pair histogram recording on every
// query costs ~10% on kernel-bound merge workloads, an order of magnitude
// over the <3% enabled-overhead budget, and the dispatch-size distribution
// is stable across queries, so sampling keeps the Table II signal at ~1/8th
// the cost.
func (in *instr) kernelShard() *stats.Shard {
	if in.st == nil {
		return nil
	}
	q := in.qseq
	in.qseq++
	if q%stats.KernelSampleRate != 0 {
		return nil
	}
	return in.st
}

// ---------------------------------------------------------------------------
// Planner.
// ---------------------------------------------------------------------------

// EnablePlanner installs m as the process-wide adaptive strategy planner.
// Call once at startup, before building executors; executors created
// afterwards (including the pooled defaults behind the package-level
// wrappers) attach automatically. Passing nil, or a model built with
// ModeOff, deactivates the planner for future executors but does not detach
// live ones — use (*Executor).DisablePlanner for that.
func EnablePlanner(m *planner.Model) { planner.Activate(m) }

// PlannerModel returns the process-wide planner model, or nil when the
// planner is off.
func PlannerModel() *planner.Model { return planner.Active() }

// EnablePlanner attaches the executor (and its existing parallel worker
// slots) to a planner model. Each writer gets its own single-writer handle,
// so the parallel paths decide and record without contention. A second call
// is a no-op; an executor consults at most one model for its whole life
// (until DisablePlanner).
func (e *Executor) EnablePlanner(m *planner.Model) {
	if m == nil || m.Mode() == planner.ModeOff || e.in.model != nil {
		return
	}
	e.attach(e.in.sink, m, e.in.tr)
}

// DisablePlanner detaches the executor from its planner model: every
// dispatch seam reverts to the static heuristics.
func (e *Executor) DisablePlanner() { e.attach(e.in.sink, nil, e.in.tr) }

// planArmCounters maps (decision kind, chosen arm) to its stats counter.
var planArmCounters = [planner.NumDecisions][2]stats.Counter{
	planner.DecSegSeg:     {stats.CtrPlanSegSegMerge, stats.CtrPlanSegSegHash},
	planner.DecSegDense:   {stats.CtrPlanSegDenseFromDense, stats.CtrPlanSegDenseFromSeg},
	planner.DecArrayDense: {stats.CtrPlanArrayDenseFromArray, stats.CtrPlanArrayDenseFromDense},
}

// notePlan records one resolved planner decision into the stats shard: the
// per-arm decision counter, the exploration tally, and the
// static-disagreement tally (override = the planner picked the arm the
// static heuristic would not have).
func (in *instr) notePlan(d planner.Decision, ch planner.Choice, override bool) {
	if in.st == nil {
		return
	}
	in.st.Inc(planArmCounters[d][ch.Arm&1])
	if ch.Explored {
		in.st.Inc(stats.CtrPlanExplored)
	}
	if override {
		in.st.Inc(stats.CtrPlanOverrides)
	}
}

// planSegSeg resolves the seg×seg merge-vs-hash dispatch: through the
// planner when the writer has a handle (arm 0 = merge, work = the larger
// set; arm 1 = hash, work = the smaller set), by the static SkewThreshold
// rule otherwise. The returned Choice is the planner's bookkeeping token —
// when it asks for measurement, time the chosen strategy and hand it back.
// A traced writer also records the decision with its predicted per-arm
// costs, the signal that exposes mispriced cost cells next to the strategy
// span's measured latency.
func (in *instr) planSegSeg(a, b *Set) (planner.Choice, bool) {
	if in.plan == nil {
		return planner.Choice{}, useHash(a, b)
	}
	small, large := a.n, b.n
	if small > large {
		small, large = large, small
	}
	ch := in.plan.Decide(planner.DecSegSeg, large, small)
	hash := ch.Arm == 1
	in.notePlan(planner.DecSegSeg, ch, hash != useHash(a, b))
	if in.tr != nil {
		e0, e1 := in.plan.EstimateNanos(planner.DecSegSeg, large, small)
		in.tr.Event(trace.KindPlan, ch.Arm,
			trace.PlanFlags(int(planner.DecSegSeg), ch.Explored), uint64(e0), uint64(e1))
	}
	return ch, hash
}

// planStart returns the timing anchor for a measured choice; the zero time
// (and no clock read) otherwise.
func planStart(ch planner.Choice) time.Time {
	if ch.Measure() {
		return time.Now()
	}
	return time.Time{}
}

// planRecord feeds a measured choice's observed latency back into the
// writer's handle; no-op (inlined) for unmeasured choices.
func (in *instr) planRecord(ch planner.Choice, start time.Time) {
	if ch.Measure() {
		in.recordSince(ch, start)
	}
}

// recordSince is planRecord's measured arm, kept out of line so the
// unmeasured check inlines into the per-pair and per-candidate paths.
func (in *instr) recordSince(ch planner.Choice, start time.Time) {
	in.plan.Record(ch, time.Since(start))
}

// ---------------------------------------------------------------------------
// Tracing.
// ---------------------------------------------------------------------------

// SetTraceCell attaches the executor's own writer to a tracing staging cell;
// nil detaches. The serving tier owns the trace topology — one cell per
// (document shard × admission slot) — and attaches each pinned executor to
// its cell at tier construction; the executor's query paths then append
// strategy spans, planner-decision events and kernel dispatch marks to it
// with plain single-writer stores. The caller owns the cell's reset cadence
// (the tier resets it at the start of every query before the executor runs).
func (e *Executor) SetTraceCell(c *trace.Cell) { e.attach(e.in.sink, e.in.model, c) }
