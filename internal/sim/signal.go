package sim

// Signal is a broadcast wake-up primitive. Processes block on Wait; Fire
// wakes every current waiter at the moment it fires. Later waiters block
// until the next Fire.
type Signal struct {
	e       *Engine
	waiters []uint32 // refs of waiting processes of either kind
}

// NewSignal creates a signal bound to engine e.
func (e *Engine) NewSignal() *Signal { return &Signal{e: e} }

// Wait blocks the calling process until the signal fires.
func (s *Signal) Wait(p *Proc) {
	p.checkCurrent("Signal.Wait")
	s.waiters = append(s.waiters, p.ref)
	p.blockOn("signal wait")
}

// WaitStep is Wait for state-machine processes: it queues sp as a waiter and
// returns the StepWaiting status the step function must return immediately;
// the next invocation runs after the signal fires.
func (s *Signal) WaitStep(sp *StepProc) Status {
	s.waiters = append(s.waiters, sp.ref)
	return sp.Waiting("signal wait")
}

// Fire wakes all processes currently waiting, in the order they began
// waiting. It may be called from a process or from an event closure.
// Waking only schedules, so no process can wait again before the list is
// emptied, and its backing array is kept for the next round.
func (s *Signal) Fire() {
	for _, ref := range s.waiters {
		s.e.schedule(s.e.now, ref)
	}
	s.waiters = s.waiters[:0]
}

// FireAfter fires the signal d cycles from now. Processes that begin waiting
// in the meantime are woken too.
func (s *Signal) FireAfter(d Time) {
	s.e.After(d, s.Fire)
}

// Waiting returns the number of processes currently blocked on the signal.
func (s *Signal) Waiting() int { return len(s.waiters) }
