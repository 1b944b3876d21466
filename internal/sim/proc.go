package sim

import (
	"fmt"
	"iter"
	"math/rand"
)

// procKill is the sentinel a killed process panics with at its block point
// (Reset terminating processes abandoned by Stop or a discarded deadlock).
// Spawn's deferred handler recognises it and unwinds the coroutine, running
// the body's defers, without recording an error.
type procKill struct{}

// Proc is a simulated process: a Go function scheduled cooperatively by the
// engine. All methods on Proc must be called from within the process's own
// function; they are not safe to call from outside the simulation.
type Proc struct {
	e    *Engine
	ref  uint32 // refProc | spawn index
	name string

	// The body runs as an iter.Pull coroutine: next transfers control into
	// it until it yields or returns, yield (valid once the body has started)
	// transfers control back to whoever called next, and stop makes a
	// suspended yield return false — or, before the first next, discards the
	// body unrun.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	done bool
	err  error
	rng  *rand.Rand

	// waitReason names the primitive the process is blocked on ("" while
	// runnable or merely advancing time); blockedAt is when it yielded.
	// Together they make deadlock reports actionable and feed the engine's
	// blocked-dwell histogram.
	waitReason string
	blockedAt  Time
}

// Spawn creates a process named name running fn, starting at the current
// simulated time. fn receives the Proc as its scheduling handle.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{e: e, ref: newRef(refProc, len(e.procs), "processes"), name: name}
	e.procs = append(e.procs, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		// A panic must not escape the coroutine: iter.Pull would re-raise it
		// from next, inside the event loop. It is recorded on the process
		// and reported by Run instead.
		defer func() {
			if r := recover(); r != nil {
				if _, isKill := r.(procKill); !isKill {
					p.err = fmt.Errorf("panic: %v", r)
				}
			}
			p.done = true
		}()
		fn(p)
	})
	e.schedule(e.now, p.ref)
	return p
}

// SpawnSeeded is Spawn with a process-local deterministic random source,
// available through Rand.
func (e *Engine) SpawnSeeded(name string, seed int64, fn func(*Proc)) *Proc {
	p := e.Spawn(name, fn)
	p.rng = rand.New(rand.NewSource(seed))
	return p
}

// ID returns the process's spawn index.
func (p *Proc) ID() int { return int(p.ref & refIndex) }

// Name returns the process's name.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine the process runs on.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.e.now }

// Rand returns the process-local random source, or nil if the process was
// created with Spawn rather than SpawnSeeded.
func (p *Proc) Rand() *rand.Rand { return p.rng }

// Done reports whether the process function has returned.
func (p *Proc) Done() bool { return p.done }

// block yields control to the engine until the process is resumed. Callers
// waiting on a primitive set waitReason first (blockOn); a plain time
// advance leaves it empty.
func (p *Proc) block() {
	p.blockedAt = p.e.now
	if !p.yield(struct{}{}) {
		panic(procKill{})
	}
	if p.waitReason != "" {
		p.e.obsDwell.Observe(float64(p.e.now - p.blockedAt))
		p.waitReason = ""
	}
}

// blockOn is block with the wait reason recorded, for the waiting
// primitives (channel recv, signal wait, gate acquire).
func (p *Proc) blockOn(reason string) {
	p.waitReason = reason
	p.block()
}

// Advance suspends the process for d cycles of simulated time.
func (p *Proc) Advance(d Time) {
	p.checkCurrent("Advance")
	p.e.schedule(p.e.now+d, p.ref)
	p.block()
}

// Yield suspends the process and reschedules it at the current time, after
// all events already queued for this instant.
func (p *Proc) Yield() { p.Advance(0) }

func (p *Proc) checkCurrent(op string) {
	if p.e.current != p {
		panic(fmt.Sprintf("sim: %s called on process %q from outside it", op, p.name))
	}
}
