package core

import (
	"context"

	"fesia/internal/stats"
)

// Context-aware query paths. A serving system needs runaway queries to be
// deadline-bounded and cancellable. The *Ctx methods are the plain query
// operators (pair, kSets, many) handed a non-nil context: the same loops
// check it cooperatively at coarse granularity — per bitmap-word block in
// the merge and k-way loops and the dense-word paths, per probed-element
// block in the hash and membership probes, and per candidate in the
// one-vs-many paths. The blocks are large enough that the checkpoint branch
// is invisible next to the work between checks, yet small enough that
// cancellation and deadlines are honored within microseconds of firing. The
// plain methods pass a nil context, which the checkpoints skip.
//
// On cancellation every method returns ctx.Err() (possibly wrapped by the
// caller's context machinery); counts are 0 and any destination buffers hold
// unspecified partial data. No scratch state is corrupted — the executor
// remains valid for further queries.
const (
	// ctxWordBlock is the word-loop checkpoint unit: bitmap words ANDed (and
	// their surviving pairs dispatched) between context checks. At a few
	// cycles per word plus kernels, 1024 words sit well under 10µs.
	ctxWordBlock = 1024
	// ctxProbeBlock is the probe-loop checkpoint unit: elements probed
	// between checks.
	ctxProbeBlock = 2048
)

// checkpoint returns ctx's error; a nil ctx is never cancelled.
func checkpoint(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// blocks runs fn over [0, n) in blk-sized index ranges, checking ctx before
// each, with fn's dst advanced past the earlier ranges' matches. It returns
// the summed match count, or (0, ctx.Err()) on cancellation.
func blocks(ctx context.Context, n, blk int, dst []uint32, fn func(lo, hi int, dst []uint32) int) (int, error) {
	total := 0
	for lo := 0; lo < n; lo += blk {
		if err := checkpoint(ctx); err != nil {
			return 0, err
		}
		total += fn(lo, min(lo+blk, n), tail(dst, total))
	}
	return total, nil
}

// noteCancel records one cancelled query (when stats are enabled) and passes
// the error through. Called once per top-level query, so a cancelled query
// counts once no matter how many checkpoints observed it.
func (e *Executor) noteCancel(err error) error {
	if err != nil && e.in.st != nil {
		e.in.st.Inc(stats.CtrCancellations)
	}
	return err
}

// CountCtx is Count with cooperative cancellation: it returns |a ∩ b| with
// the adaptively chosen strategy, or ctx.Err() as soon as a checkpoint
// observes the context done.
func (e *Executor) CountCtx(ctx context.Context, a, b *Set) (int, error) {
	return e.pair(ctx, stratAuto, a, b, nil, nil)
}

// IntersectIntoCtx is Intersect-into-dst with cooperative cancellation. dst
// must have room for min(a.Len(), b.Len()) elements; results land in the same
// order Intersect produces. On cancellation it returns (0, ctx.Err()) and dst
// holds unspecified partial data.
func (e *Executor) IntersectIntoCtx(ctx context.Context, dst []uint32, a, b *Set) (int, error) {
	return e.pair(ctx, stratAuto, a, b, dst, nil)
}

// CountKCtx is CountK with cooperative cancellation: the k-way bitmap AND and
// its segment chains run one word block at a time, with a context check
// between blocks (between sets on the mixed-representation chain).
func (e *Executor) CountKCtx(ctx context.Context, sets ...*Set) (int, error) {
	return e.kSets(ctx, sets, nil, nil)
}

// CountManyCtx is CountMany with cooperative cancellation, checked once per
// candidate: out[i] is |q ∩ candidates[i]| for every candidate processed
// before the context fired. On cancellation it returns ctx.Err() and the tail
// of out is unspecified.
func (e *Executor) CountManyCtx(ctx context.Context, q *Set, candidates []*Set, out []int) error {
	if len(out) < len(candidates) {
		panic("core: CountManyCtx output shorter than candidate list")
	}
	_, err := e.many(ctx, q, candidates, out, nil, nil)
	return err
}

// CountManyParallelCtx is CountManyParallel with cooperative cancellation:
// every worker checks the context once per candidate and abandons its
// remaining share when it fires, so a cancelled batch over thousands of
// candidates unwinds within one candidate's worth of work per worker. On
// cancellation it returns ctx.Err() and out holds unspecified partial data.
func (e *Executor) CountManyParallelCtx(ctx context.Context, q *Set, candidates []*Set, out []int, workers int) error {
	if len(out) < len(candidates) {
		panic("core: CountManyParallelCtx output shorter than candidate list")
	}
	return e.manyParallel(ctx, q, candidates, out, workers)
}
