package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
)

// This file is the parallel experiment runner. Every driver expresses its
// sweep as independent (sweep-point, run) simulation jobs and submits them
// through parMap or sweepRuns; the jobs fan across Options.Parallelism
// workers of the pool in internal/sched, each job building its own
// sim.Engine/qsmlib.Machine, and the results land in an index-addressed
// slice. Because aggregation then walks that slice in submission order,
// every averaging and table-building step sees results in exactly the order
// the serial loop produced them — the rendered tables are byte-identical at
// any parallelism level and under any claim interleaving.

// workerPanic carries a worker's panic value together with the goroutine
// stack captured at recover time, so a simulation failing under -parallel
// reports where it died rather than just the panic message. It is the
// scheduler's panic envelope; the alias keeps the runner's historical name
// for it.
type workerPanic = sched.Panic

// sweepCancelled is the sentinel panic the runner raises when
// Options.Context is cancelled; Run converts it back into an error.
type sweepCancelled struct{ err error }

// cancelCause unwraps a recovered panic value to the context error behind a
// runner-raised cancellation, from either the serial path (raised directly)
// or a worker pool (wrapped in workerPanic).
func cancelCause(r any) (error, bool) {
	switch v := r.(type) {
	case *sweepCancelled:
		return v.err, true
	case *workerPanic:
		if c, ok := v.Val.(*sweepCancelled); ok {
			return c.err, true
		}
	}
	return nil, false
}

// parMap runs fn for every index in [0, n) across a pool of par workers and
// returns the results in index order. fn must be safe to call concurrently
// and deterministic in its argument; simulator state must be local to the
// call. A panic in any job is captured — together with the worker's stack —
// stops the pool from claiming more jobs, and is re-raised in the caller
// once the running jobs return, so a failing simulation reports the same
// way it does serially.
func parMap[T any](par, n int, fn func(i int) T) []T {
	return parMapCost(par, n, nil, fn)
}

// parMapCost is parMap with a cost hint: when non-nil, workers claim jobs in
// descending estimated cost so the biggest jobs start first (LPT list
// scheduling) instead of being discovered at the tail of a monotone sweep.
func parMapCost[T any](par, n int, cost func(i int) float64, fn func(i int) T) []T {
	out := make([]T, n)
	sched.Map(par, n, func(i int) { out[i] = fn(i) }, sched.Options{Cost: cost})
	return out
}

// progressTracker drives Options.Progress callbacks for one sweep. A nil
// tracker is a no-op.
type progressTracker struct {
	fn     func(Progress)
	start  time.Time
	points int
	runs   int
	done   []atomic.Int32 // completed runs per point
}

func newProgressTracker(opt Options, points, runs int) *progressTracker {
	if opt.Progress == nil {
		return nil
	}
	return &progressTracker{
		fn:     opt.Progress,
		start:  time.Now(),
		points: points,
		runs:   runs,
		done:   make([]atomic.Int32, points),
	}
}

func (pt *progressTracker) jobDone(point int) {
	if pt == nil {
		return
	}
	pt.fn(Progress{
		Point:    point,
		Points:   pt.points,
		RunsDone: int(pt.done[point].Add(1)),
		Runs:     pt.runs,
		Elapsed:  time.Since(pt.start),
	})
}

// sweepCost is the default cost hint for sweep fan-outs: sweeps enumerate
// their points in ascending problem size, so a job's flat index is a
// monotone proxy for its cost. Claiming by it starts the most expensive
// (large-n) jobs first instead of leaving them to the tail of the sweep.
func sweepCost(i int) float64 { return float64(i) }

// sweepRuns fans the full (point, run) grid of a sweep across the pool and
// returns result[point][run]. This is the widest fan-out: with points*runs
// jobs in one pool, a slow point cannot leave workers idle the way
// per-point parallelism would, and a worker that finishes early claims the
// next job whatever the cost hint mispredicted.
//
// Each job receives its own obs.Recorder (nil when Options.Obs is nil),
// reserved from the sink in flat (point, run) order before the fan-out so
// the eventual Merged() aggregation is independent of worker scheduling.
func sweepRuns[T any](opt Options, points, runs int, fn func(point, run int, rec *obs.Recorder) T) [][]T {
	base := opt.Obs.Reserve(points * runs)
	pt := newProgressTracker(opt, points, runs)
	flat := parMapCost(opt.parallelism(), points*runs, sweepCost, func(i int) T {
		if err := opt.ctxErr(); err != nil {
			panic(&sweepCancelled{err})
		}
		sp := opt.wallSpan(i/runs, i%runs)
		v := fn(i/runs, i%runs, opt.Obs.Recorder(base+i))
		sp.End()
		pt.jobDone(i / runs)
		return v
	})
	out := make([][]T, points)
	for p := 0; p < points; p++ {
		out[p] = flat[p*runs : (p+1)*runs]
	}
	return out
}

// sweepPoints fans one job per sweep point, for drivers whose per-point work
// is not a plain repetition grid (adaptive scans, multi-machine jobs).
func sweepPoints[T any](opt Options, points int, fn func(point int, rec *obs.Recorder) T) []T {
	base := opt.Obs.Reserve(points)
	pt := newProgressTracker(opt, points, 1)
	return parMapCost(opt.parallelism(), points, sweepCost, func(i int) T {
		if err := opt.ctxErr(); err != nil {
			panic(&sweepCancelled{err})
		}
		sp := opt.wallSpan(i, 0)
		v := fn(i, opt.Obs.Recorder(base+i))
		sp.End()
		pt.jobDone(i)
		return v
	})
}

// wallSpan opens the wall-clock span for one (point, run) job, or nil (a
// no-op to End) when wall tracing is off. The guard keeps the disabled path
// free of the span-name allocation.
func (o Options) wallSpan(point, run int) *obs.WallSpan {
	if o.Wall == nil {
		return nil
	}
	return o.Wall.Start(o.TraceID, "runner", "sweep", fmt.Sprintf("point %d run %d", point, run))
}
