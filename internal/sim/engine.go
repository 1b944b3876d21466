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
// drain through without touching the heap. The queue holds no pointers:
// heap entries carry their (time, seq) key inline beside a 32-bit ref
// naming what fires, a process by its spawn index or a callback or channel
// delivery by its slot in a small slab (event.go).
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
	// time-ordered 4-ary heap behind it. Both hold refs (event.go); calls
	// is the slab refCall refs index, freeCalls its free slots.
	heap      eventHeap
	nowq      refRing
	calls     []call
	freeCalls []uint32

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
// simulation without reallocating its queue storage or call slab.
// Coroutine processes not yet finished — abandoned by Stop, left mid-wait by
// a caller discarding a deadlocked run, or never started — are terminated:
// a suspended one unwinds through a kill sentinel (running its defers), an
// unstarted one is discarded, so Stop→Reset→reuse leaks nothing. Events()
// deliberately survives Reset (see its doc); the clock, queues, and process
// tables are cleared. Channels, signals and gates made before Reset belong
// to the old simulation: their waiters name processes by spawn index, which
// the next simulation reuses, so they must not be used after it.
func (e *Engine) Reset() {
	for _, p := range e.procs {
		if !p.done {
			e.kill(p)
		}
	}
	e.heap = e.heap[:0]
	e.nowq.head, e.nowq.count = 0, 0
	clear(e.calls)
	e.calls = e.calls[:0]
	e.freeCalls = e.freeCalls[:0]
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

// schedule enqueues ref to fire at t, after everything already due at t:
// into the same-instant ring when t is now (append order is scheduling
// order there), into the heap otherwise. Only heap keys need a seq.
func (e *Engine) schedule(t Time, ref uint32) {
	switch {
	case t == e.now:
		e.nowq.push(ref)
	case t > e.now:
		e.heap.push(eventKey{at: t, seq: e.seq, ref: ref})
		e.seq++
	default:
		panic(fmt.Sprintf("sim: scheduling event in the past (t=%d, now=%d)", t, e.now))
	}
	e.obsQueueHW.Set(int64(e.pending()))
}

// scheduleCall enqueues c to fire at t through a slab slot.
func (e *Engine) scheduleCall(t Time, c call) {
	var ref uint32
	if n := len(e.freeCalls); n > 0 {
		i := e.freeCalls[n-1]
		e.freeCalls = e.freeCalls[:n-1]
		e.calls[i] = c
		ref = refCall | i
	} else {
		ref = newRef(refCall, len(e.calls), "pending calls")
		e.calls = append(e.calls, c)
	}
	e.schedule(t, ref)
}

// pending returns the total number of queued events across both stores.
func (e *Engine) pending() int { return len(e.heap) + e.nowq.count }

// At schedules fn to run at absolute time t. It may be called before Run or
// from within a running process.
func (e *Engine) At(t Time, fn func()) { e.scheduleCall(t, call{fn: fn}) }

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// nextEvent pops the next event in (time, seq) order, advancing the clock
// when the current instant's cohort is exhausted; ok is false when nothing
// is pending. The cohort drains in two legs that together follow scheduling
// order: heap events that reached the current time first (they were
// scheduled from earlier instants), then the ring of events scheduled during
// the instant itself. Only a cohort boundary touches
// the heap, so same-time bursts cost O(1) ring operations instead of sifts.
func (e *Engine) nextEvent() (ref uint32, ok bool) {
	switch {
	case len(e.heap) > 0 && e.heap[0].at == e.now:
		return e.heap.popMin().ref, true
	case e.nowq.count > 0:
		return e.nowq.pop(), true
	case len(e.heap) > 0:
		k := e.heap.popMin()
		e.now = k.at
		return k.ref, true
	}
	return 0, false
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
		ref, ok := e.nextEvent()
		if !ok {
			break
		}
		e.nEvents++
		i := ref & refIndex
		switch ref &^ refIndex {
		case refProc:
			e.runProc(e.procs[i])
		case refStep:
			e.runStep(e.steps[i])
		default:
			// Free the slot before firing, so what the call schedules can
			// reuse it.
			c := e.calls[i]
			e.calls[i] = call{}
			e.freeCalls = append(e.freeCalls, i)
			if c.ch != nil {
				c.ch.deliver(c.val)
			} else {
				c.fn()
			}
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
