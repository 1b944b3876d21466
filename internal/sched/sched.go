// Package sched is the worker pool under the experiment runner (and, by
// extension, every sweep the service executes). A sweep is a set of
// independent simulations; Map orders them by descending estimated cost and
// par workers claim them in that order from one shared atomic counter. That
// is greedy list scheduling in longest-processing-time-first (LPT) order:
// each worker that comes free takes the costliest job not yet started, so
// the large-n points that dominate the paper's Figure 4–7 sweeps start first
// instead of being discovered at the tail of a submission-ordered queue.
//
// Determinism is preserved by construction: a job is an index into a
// preallocated result slice, every index is claimed by exactly one worker,
// and callers aggregate results in index order afterwards — the schedule
// decides only *when* a job runs, never where its result lands. Tables and
// metrics are therefore byte-identical at any parallelism.
package sched

import (
	"cmp"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
)

// Panic carries a worker's panic value together with the goroutine stack
// captured at recover time, so the report names the stack of the job that
// died, not just the panic message. Map re-raises the first one after the
// pool stops; it implements error so an unrecovered re-raise prints the
// original value followed by the worker's stack.
type Panic struct {
	Val   any
	Stack []byte
}

func (p *Panic) Error() string {
	return fmt.Sprintf("%v\n\nworker stack:\n%s", p.Val, p.Stack)
}

// Stats is what Totals reports.
//
// Deprecated: always zero. The pool claims jobs from one shared counter, so
// there is nothing to steal; the type stays for callers that read Totals.
type Stats struct {
	// Steals is always zero.
	Steals uint64
}

// Totals returns the process-wide scheduler counters.
//
// Deprecated: always zero; see Stats.
func Totals() Stats { return Stats{} }

// Options tune one Map call.
type Options struct {
	// Cost estimates a job's relative execution cost. When non-nil, jobs are
	// claimed in descending estimated cost so the most expensive jobs start
	// first. Nil claims in index order. Cost only shapes the schedule;
	// results are index-addressed either way.
	Cost func(i int) float64
}

// claimOrder returns job indices in claim order: descending estimated cost
// under a hint (ties broken by index, so the order is deterministic), index
// order otherwise.
func claimOrder(n int, cost func(i int) float64) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if cost != nil {
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(cost(b), cost(a)) })
	}
	return order
}

// Map runs fn(i) for every i in [0, n) across par workers, which claim jobs
// in claimOrder from one shared counter. fn must be safe for concurrent
// calls on distinct indices; each index runs at most once, and exactly once
// unless a job panics. A panic in any job is captured with the executing
// worker's stack, stops every worker from claiming further jobs, and is
// re-raised in the caller as *Panic once the running jobs return. par <= 1
// (or n <= 1) runs serially in index order with no pool at all.
func Map(par, n int, fn func(i int), opt Options) {
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}

	order := claimOrder(n, opt.Cost)
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		panicked atomic.Pointer[Panic]
	)
	wg.Add(par)
	for range par {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &Panic{Val: r, Stack: debug.Stack()})
				}
			}()
			for panicked.Load() == nil {
				k := next.Add(1) - 1
				if k >= int64(n) {
					return
				}
				fn(order[k])
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
}
