package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// TestStepProcSleepLoop drives a lone state-machine ticker and checks the
// clock and step count.
func TestStepProcSleepLoop(t *testing.T) {
	e := NewEngine()
	n := 0
	e.SpawnStep("ticker", func(sp *StepProc) Status {
		if n == 10 {
			return StepDone
		}
		n++
		return sp.Sleep(3)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("steps = %d, want 10", n)
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %d, want 30", e.Now())
	}
}

// TestStepProcInterleavesWithProcs pins the core determinism claim: a
// goroutine process and a state-machine process doing the same schedule of
// advances interleave in exact spawn order at every shared timestamp,
// regardless of their kind.
func TestStepProcInterleavesWithProcs(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("g", func(p *Proc) {
		for i := 0; i < 4; i++ {
			trace = append(trace, fmt.Sprintf("g@%d", p.Now()))
			p.Advance(2)
		}
	})
	i := 0
	e.SpawnStep("s", func(sp *StepProc) Status {
		trace = append(trace, fmt.Sprintf("s@%d", sp.Now()))
		if i++; i == 4 {
			return StepDone
		}
		return sp.Sleep(2)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"g@0", "s@0", "g@2", "s@2", "g@4", "s@4", "g@6", "s@6"}
	if fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Errorf("trace = %v, want %v", trace, want)
	}
}

// TestStepProcSleepUntilPastPanics mirrors the engine's scheduling-in-the-
// past panic for the stepped API. Unlike a goroutine Proc, whose panic is
// captured as a process error, a StepProc runs on the engine's goroutine, so
// its panic propagates straight out of Run.
func TestStepProcSleepUntilPastPanics(t *testing.T) {
	e := NewEngine()
	e.SpawnStep("bad", func(sp *StepProc) Status {
		if sp.Now() == 0 {
			return sp.Sleep(5)
		}
		return sp.SleepUntil(1)
	})
	defer func() {
		if recover() == nil {
			t.Error("expected panic from SleepUntil into the past")
		}
	}()
	_ = e.Run()
}

// TestStepProcRecvStep exercises the stepped channel receive: wait, wake on
// send, consume.
func TestStepProcRecvStep(t *testing.T) {
	e := NewEngine()
	c := e.NewChan()
	var got []int
	e.SpawnStep("recv", func(sp *StepProc) Status {
		for {
			v, ok, st := c.RecvStep(sp)
			if !ok {
				return st
			}
			got = append(got, v.(int))
			if len(got) == 3 {
				return StepDone
			}
		}
	})
	e.Spawn("send", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Advance(10)
			c.Send(i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Errorf("received %v, want [1 2 3]", got)
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %d, want 30", e.Now())
	}
}

// TestStepProcWaitStep exercises the stepped signal wait alongside goroutine
// waiters: both kinds wake on one Fire, in wait order.
func TestStepProcWaitStep(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal()
	var order []string
	e.Spawn("g", func(p *Proc) {
		s.Wait(p)
		order = append(order, "g")
	})
	waited := false
	e.SpawnStep("s", func(sp *StepProc) Status {
		if !waited {
			waited = true
			return s.WaitStep(sp)
		}
		order = append(order, "s")
		return StepDone
	})
	e.At(5, func() { s.Fire() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[g s]" {
		t.Errorf("wake order = %v, want [g s]", order)
	}
}

// TestStepProcDeadlockReported checks a stepper stuck on a channel shows up
// in the deadlock report like a goroutine process would.
func TestStepProcDeadlockReported(t *testing.T) {
	e := NewEngine()
	c := e.NewChan()
	e.SpawnStep("stuck", func(sp *StepProc) Status {
		_, ok, st := c.RecvStep(sp)
		if !ok {
			return st
		}
		return StepDone
	})
	err := e.Run()
	de, isDeadlock := err.(*DeadlockError)
	if !isDeadlock {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Procs) != 1 || de.Procs[0].Name != "stuck" || de.Procs[0].Reason != "chan recv" {
		t.Errorf("blocked = %+v, want stuck on chan recv", de.Procs)
	}
}

// TestStepProcAccessors covers the trivial getters and the seeded rng.
func TestStepProcAccessors(t *testing.T) {
	e := NewEngine()
	sp := e.SpawnStepSeeded("acc", 7, func(sp *StepProc) Status { return StepDone })
	if sp.ID() != 0 || sp.Name() != "acc" || sp.Engine() != e || sp.Rand() == nil {
		t.Errorf("accessor mismatch: id=%d name=%q", sp.ID(), sp.Name())
	}
	if sp.Done() {
		t.Error("Done() true before run")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !sp.Done() {
		t.Error("Done() false after StepDone")
	}
}

// waitGoroutines yields to exiting goroutines until the count is back to at
// most want or the deadline passes, and returns the last count seen.
func waitGoroutines(want int, deadline time.Time) int {
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		runtime.Gosched()
	}
}

// TestStopResetNoGoroutineLeak: every way a run can leave a process
// unfinished must be cleaned up by Reset, so an engine reused run over run
// does not accumulate suspended coroutines (each one is a goroutine to the
// runtime). Even rounds end in Stop with ten processes blocked mid-body and
// three that never started — spawned by the stopping event itself, so their
// first resume never fires; odd rounds end in a deadlock.
func TestStopResetNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	for round := 0; round < 20; round++ {
		s := e.NewSignal()
		for i := 0; i < 10; i++ {
			e.Spawn("waiter", func(p *Proc) { s.Wait(p) })
		}
		if round%2 == 0 {
			e.At(5, func() {
				e.Stop()
				for i := 0; i < 3; i++ {
					e.Spawn("never", func(p *Proc) { t.Error("process spawned after Stop ran") })
				}
			})
		}
		err := e.Run()
		if _, deadlock := err.(*DeadlockError); deadlock != (round%2 == 1) {
			t.Fatalf("round %d: Run error = %v", round, err)
		}
		e.Reset()
	}
	// The unwound goroutines exit asynchronously.
	if got := waitGoroutines(base, time.Now().Add(5*time.Second)); got > base {
		t.Errorf("goroutines after 20 Stop/deadlock+Reset rounds = %d, want <= %d", got, base)
	}
}

// TestStopBeforeFirstStepThenReset kills a process that never got to run:
// its goroutine must unwind without executing the body.
func TestStopBeforeFirstStepThenReset(t *testing.T) {
	e := NewEngine()
	ran := false
	e.At(0, func() { e.Stop() })
	// Spawned after the stop event, so its start event never fires... but the
	// spawn event shares timestamp 0; stop halts the loop first.
	e.Spawn("never", func(p *Proc) { ran = true })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Reset()
	if ran {
		t.Error("process body ran despite Stop before its first event")
	}
}
