// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock measured in processor cycles and
// executes events in (time, sequence) order. Simulated activities are
// expressed as processes of two kinds:
//
//   - Coroutine processes (Proc): ordinary Go functions, each running as an
//     iter.Pull coroutine the engine resumes with next() and the process
//     leaves with yield. A process blocks by calling one of the waiting
//     primitives (Advance, Wait, Recv, Acquire); control returns to the
//     engine, which resumes the process when the corresponding event fires.
//     A resumption is two coroutine switches: a direct hand-off between two
//     goroutines, with no scheduler pass and no channel. Stop abandons
//     suspended processes and Reset unwinds them; a panic in a body is
//     caught inside the coroutine and reported by Run. This is the API for
//     user-authored algorithms, whose control flow reads naturally as
//     straight-line code.
//
//   - State-machine processes (StepProc): explicit Step functions the event
//     loop calls directly, with no coroutine and no switch at all. The
//     engine's hottest built-in process types (the membank bank accessors)
//     use this form; see stepproc.go.
//
// Both kinds interleave in the same (time, seq) order, so converting a
// process between forms leaves a simulation's results byte-identical.
// Because exactly one process runs at any instant and all ties are broken
// by sequence number, a simulation with a fixed seed is fully reproducible.
//
// There is one pending-event queue: a 4-ary heap ordered by (time, seq),
// whose O(log n) bound holds for any schedule, fronted by a FIFO ring (the
// same-timestamp cohort) that events scheduled for the current instant
// drain through without touching the heap.
//
// Engines are single-threaded and carry no shared state, so independent
// engines may run concurrently on separate goroutines; the experiment
// runner exploits this to fan simulations across cores.
package sim

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/obs"
)

// Time is a point in simulated time, in cycles.
type Time uint64

// totalEvents counts events executed by every engine in the process, for
// whole-program throughput reporting (events/sec) across parallel workers.
var totalEvents atomic.Uint64

// TotalEvents returns the number of events executed by all engines in this
// process since it started. The counter is process-global and monotonic:
// it aggregates across every engine ever run (including engines on parallel
// experiment workers) and is never reset, so per-run readers must subtract
// a snapshot taken before the run, as cmd/qsmbench does for BENCH_<id>.json.
// For a single engine's count use Engine.Events. Engines publish their
// counts when Run returns.
func TotalEvents() uint64 { return totalEvents.Load() }

// Engine is a deterministic discrete-event simulator; create engines with
// NewEngine.
type Engine struct {
	now Time
	seq uint64

	// Pending events live in one of two places: nowq, a FIFO ring holding
	// the remainder of the current instant's cohort (events scheduled for
	// t == now while the engine executes that instant), and the
	// time-ordered 4-ary heap behind it.
	heap eventHeap
	nowq eventRing

	free    []*event // recycled event structs, refilled as events fire
	procs   []*Proc
	steps   []*StepProc
	current *Proc
	stopped bool
	nEvents uint64

	// Observability hooks, nil unless Observe attached a recorder. Each is a
	// typed handle whose methods are nil-safe, so the hot paths pay only a
	// predictable branch when observation is off.
	rec        *obs.Recorder
	obsEvents  *obs.Counter
	obsQueueHW *obs.Gauge
	obsDwell   *obs.Histogram
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events this engine has executed over its
// lifetime. The counter is per-engine and monotonic: it keeps growing across
// multiple Run calls and deliberately survives Reset, so deltas taken around
// a Run stay valid on a reused engine. Contrast TotalEvents, which is
// process-global.
func (e *Engine) Events() uint64 { return e.nEvents }

// Observe attaches an observability recorder: the engine reports its event
// count, event-queue depth high-water mark, and blocked-process dwell times
// through it. Call before Run. A nil recorder detaches the hooks; with no
// recorder attached the engine's hot path is unchanged.
func (e *Engine) Observe(r *obs.Recorder) {
	e.rec = r
	e.obsEvents = r.Counter("sim", "events", "")
	e.obsQueueHW = r.Gauge("sim", "queue_depth", "")
	e.obsDwell = r.Histogram("sim", "blocked_dwell_cycles", "", obs.ExpBuckets(64, 4, 10))
}

// Recorder returns the recorder attached with Observe, or nil.
func (e *Engine) Recorder() *obs.Recorder { return e.rec }

// Reset returns the engine to time zero so it can be reused for a fresh
// simulation without reallocating its queue storage or event free list.
// Coroutine processes not yet finished — abandoned by Stop, left mid-wait by
// a caller discarding a deadlocked run, or never started — are terminated:
// a suspended one unwinds through a kill sentinel (running its defers), an
// unstarted one is discarded, so Stop→Reset→reuse leaks nothing. Events()
// deliberately survives Reset (see its doc); the clock, queues, and process
// tables are cleared.
func (e *Engine) Reset() {
	for _, p := range e.procs {
		if !p.done {
			e.kill(p)
		}
	}
	for {
		ev := e.heap.popMin()
		if ev == nil {
			break
		}
		e.recycle(ev)
	}
	for {
		ev := e.nowq.pop()
		if ev == nil {
			break
		}
		e.recycle(ev)
	}
	e.now = 0
	e.seq = 0
	e.procs = e.procs[:0]
	e.steps = e.steps[:0]
	e.current = nil
	e.stopped = false
}

// kill terminates a process that has not finished. Stopping its coroutine
// makes the yield it is suspended in return false, so block panics with the
// kill sentinel, the body's defers run, and Spawn's wrapper recovers the
// sentinel; a process that never started is discarded without running.
func (e *Engine) kill(p *Proc) {
	p.stop()
	p.done = true
}

// newEvent takes a struct off the free list or allocates one.
func (e *Engine) newEvent(t Time) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (t=%d, now=%d)", t, e.now))
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*ev = event{at: t, seq: e.seq}
	} else {
		ev = &event{at: t, seq: e.seq}
	}
	e.seq++
	return ev
}

// recycle returns a fired or cancelled event to the free list.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.proc = nil
	ev.sp = nil
	ev.ch = nil
	ev.val = nil
	e.free = append(e.free, ev)
}

// qpush enqueues a pending event: the same-timestamp ring when it fires at
// the current instant (append order is seq order there), the time-ordered
// heap otherwise.
func (e *Engine) qpush(ev *event) {
	if ev.at == e.now {
		e.nowq.push(ev)
	} else {
		e.heap.push(ev)
	}
	e.obsQueueHW.Set(int64(e.pending()))
}

// pending returns the total number of queued events across both stores.
func (e *Engine) pending() int { return e.heap.Len() + e.nowq.count }

// peekLive returns the heap's earliest live event without removing it,
// recycling any cancelled events found at the front. nil means the heap is
// empty (the nowq ring may still hold events).
func (e *Engine) peekLive() *event {
	for {
		ev := e.heap.peek()
		if ev == nil || !ev.cancelled {
			return ev
		}
		e.heap.popMin()
		e.recycle(ev)
	}
}

// schedule enqueues fn to run at time t. Ties are broken in schedule order.
func (e *Engine) schedule(t Time, fn func()) *event {
	ev := e.newEvent(t)
	ev.fn = fn
	e.qpush(ev)
	return ev
}

// scheduleProc enqueues a resume of p at time t without allocating a
// closure — the hot path behind Advance and every wake-up primitive.
func (e *Engine) scheduleProc(t Time, p *Proc) *event {
	ev := e.newEvent(t)
	ev.proc = p
	e.qpush(ev)
	return ev
}

// scheduleStep enqueues a step of sp at time t, closure-free.
func (e *Engine) scheduleStep(t Time, sp *StepProc) *event {
	ev := e.newEvent(t)
	ev.sp = sp
	e.qpush(ev)
	return ev
}

// scheduleDeliver enqueues delivery of v to channel c at time t — the
// closure-free wire-delay shuttle behind Chan.SendAfter, which carries every
// simulated message in flight through the machine and logp stacks.
func (e *Engine) scheduleDeliver(t Time, c *Chan, v interface{}) *event {
	ev := e.newEvent(t)
	ev.ch = c
	ev.val = v
	e.qpush(ev)
	return ev
}

// At schedules fn to run at absolute time t. It may be called before Run or
// from within a running process.
func (e *Engine) At(t Time, fn func()) { e.schedule(t, fn) }

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn func()) { e.schedule(e.now+d, fn) }

// nextEvent returns the next live event in (time, seq) order, advancing the
// clock when the current instant's cohort is exhausted. The cohort drains in
// two legs that together follow seq order: heap events that reached
// the current timestamp first (they were scheduled from earlier instants,
// so their seqs are the cohort's lowest), then the nowq ring of events
// scheduled during the instant itself. Only a cohort boundary touches the
// heap, so same-timestamp bursts cost O(1) ring operations instead of sifts.
func (e *Engine) nextEvent() *event {
	for {
		nxt := e.peekLive()
		switch {
		case nxt != nil && nxt.at == e.now:
			return e.heap.popMin()
		case e.nowq.count > 0:
			ev := e.nowq.pop()
			if ev.cancelled {
				e.recycle(ev)
				continue
			}
			return ev
		case nxt != nil:
			e.now = nxt.at
			return e.heap.popMin()
		default:
			return nil
		}
	}
}

// Run executes events until the queue is empty or Stop is called. It returns
// an error if any process panicked or if processes remain blocked when no
// events are left (a deadlock).
func (e *Engine) Run() error {
	start := e.nEvents
	defer func() {
		totalEvents.Add(e.nEvents - start)
		e.obsEvents.Add(e.nEvents - start)
	}()
	for !e.stopped {
		ev := e.nextEvent()
		if ev == nil {
			break
		}
		e.nEvents++
		switch {
		case ev.proc != nil:
			p := ev.proc
			e.recycle(ev)
			e.runProc(p)
		case ev.sp != nil:
			sp := ev.sp
			e.recycle(ev)
			e.runStep(sp)
		case ev.ch != nil:
			c, v := ev.ch, ev.val
			e.recycle(ev)
			c.deliver(v)
		default:
			fn := ev.fn
			e.recycle(ev)
			fn()
		}
	}
	var blocked []BlockedProc
	for _, p := range e.procs {
		if p.err != nil {
			return fmt.Errorf("sim: process %q failed: %v", p.name, p.err)
		}
		if !p.done {
			reason := p.waitReason
			if reason == "" {
				reason = "unknown"
			}
			blocked = append(blocked, BlockedProc{Name: p.name, Reason: reason, Since: p.blockedAt})
		}
	}
	for _, sp := range e.steps {
		if !sp.done && sp.waitReason != "" {
			blocked = append(blocked, BlockedProc{Name: sp.name, Reason: sp.waitReason, Since: sp.blockedAt})
		}
	}
	if len(blocked) > 0 && !e.stopped {
		sort.Slice(blocked, func(i, j int) bool { return blocked[i].Name < blocked[j].Name })
		names := make([]string, len(blocked))
		for i, b := range blocked {
			names[i] = b.Name
		}
		return &DeadlockError{Blocked: names, Procs: blocked, At: e.now}
	}
	return nil
}

// Stop halts the engine after the current event completes. Blocked processes
// are abandoned (Reset terminates them); Run returns nil.
func (e *Engine) Stop() { e.stopped = true }

// BlockedProc describes one process stuck in a deadlock: what primitive it
// was waiting on (captured at block time) and since when.
type BlockedProc struct {
	Name   string
	Reason string // e.g. "chan recv", "signal wait", "gate acquire"
	Since  Time
}

func (b BlockedProc) String() string {
	return fmt.Sprintf("%s (%s since t=%d)", b.Name, b.Reason, b.Since)
}

// DeadlockError reports processes still blocked when the event queue
// drained. Blocked lists their names; Procs carries each one's wait reason
// and block time, both sorted by name.
type DeadlockError struct {
	Blocked []string
	Procs   []BlockedProc
	At      Time
}

func (d *DeadlockError) Error() string {
	detail := d.Blocked
	if len(d.Procs) == len(d.Blocked) {
		detail = make([]string, len(d.Procs))
		for i, b := range d.Procs {
			detail[i] = b.String()
		}
	}
	return fmt.Sprintf("sim: deadlock at t=%d: %d process(es) blocked: %v", d.At, len(d.Blocked), detail)
}

// runProc transfers control to p until it blocks or finishes. It must only be
// called from the engine's event loop (directly or via an event closure).
func (e *Engine) runProc(p *Proc) {
	if p.done {
		return
	}
	prev := e.current
	e.current = p
	p.next()
	e.current = prev
}
