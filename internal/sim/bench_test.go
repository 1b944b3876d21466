package sim

import (
	"math"
	"math/rand"
	"testing"
)

// BenchmarkEngineEventsPerSec drives the canonical hot path — a process
// advancing the clock one cycle per event — and reports allocations, which
// the pointer-free queue and closure-free resume hold at zero at steady
// state.
func BenchmarkEngineEventsPerSec(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(1)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineManyProcsMixed exercises the 4-ary heap with 64 processes
// at staggered periods, the shape the multiprocessor simulation produces.
func BenchmarkEngineManyProcsMixed(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	const procs = 64
	per := b.N/procs + 1
	for i := 0; i < procs; i++ {
		d := Time(1 + i%7)
		e.Spawn("p", func(p *Proc) {
			for j := 0; j < per; j++ {
				p.Advance(d)
			}
		})
	}
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkChanSendRecv measures a send/recv ping through the ring-buffered
// channel; steady state must not grow the ring, the waiter queue or their
// backing arrays. It sends one pointer, which boxes without allocating.
func BenchmarkChanSendRecv(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	c := e.NewChan()
	tok := new(int)
	e.Spawn("recv", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.Recv(p)
		}
	})
	e.Spawn("send", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Advance(1)
			c.Send(tok)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// TestChanRingReusesBuffer verifies the satellite fix for the old
// buf = buf[1:] retention bug: a channel cycled through many send/recv
// pairs must keep a small constant-size ring, not a backing array that
// grew with the number of messages ever sent.
func TestChanRingReusesBuffer(t *testing.T) {
	e := NewEngine()
	c := e.NewChan()
	e.Spawn("pump", func(p *Proc) {
		for i := 0; i < 10000; i++ {
			c.Send(i)
			if v, ok := c.TryRecv(); !ok || v.(int) != i {
				t.Errorf("TryRecv = %v,%v at %d", v, ok, i)
				return
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(c.buf) > 8 {
		t.Errorf("ring capacity = %d after 10000 send/recv pairs, want <= 8", len(c.buf))
	}
}

// TestChanRingWrapOrder fills across a wrap boundary and checks FIFO order
// survives growth mid-stream.
func TestChanRingWrapOrder(t *testing.T) {
	e := NewEngine()
	c := e.NewChan()
	e.Spawn("pump", func(p *Proc) {
		next := 0 // next value expected out
		sent := 0
		for round := 0; round < 50; round++ {
			for i := 0; i < 3+round%5; i++ {
				c.Send(sent)
				sent++
			}
			for i := 0; i < 2+round%4 && c.Len() > 0; i++ {
				v, _ := c.TryRecv()
				if v.(int) != next {
					t.Errorf("got %v, want %d", v, next)
					return
				}
				next++
			}
		}
		for c.Len() > 0 {
			v, _ := c.TryRecv()
			if v.(int) != next {
				t.Errorf("drain got %v, want %d", v, next)
				return
			}
			next++
		}
		if next != sent {
			t.Errorf("drained %d values, sent %d", next, sent)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestEventQueueSteadyStateAllocs checks that, once the queue's storage
// has grown, scheduling and firing events allocates nothing: a Proc wake, a
// StepProc wake beside it, and a SendAfter of a pointer value through a warm
// call slab. AllocsPerRun runs its first call unmeasured, which warms the
// heap, ring and slab.
func TestEventQueueSteadyStateAllocs(t *testing.T) {
	tok := new(int)
	for name, body := range map[string]func(t *testing.T, e *Engine, p *Proc) func(){
		"proc wake": func(t *testing.T, e *Engine, p *Proc) func() {
			return func() { p.Advance(1) }
		},
		"proc and step wake": func(t *testing.T, e *Engine, p *Proc) func() {
			e.SpawnStep("stepper", func(sp *StepProc) Status { return sp.Sleep(1) })
			return func() { p.Advance(1) }
		},
		"send after": func(t *testing.T, e *Engine, p *Proc) func() {
			c := e.NewChan()
			return func() {
				c.SendAfter(1, tok)
				p.Advance(1)
				if v, ok := c.TryRecv(); !ok || v != tok {
					t.Errorf("TryRecv = %v,%v, want the sent pointer", v, ok)
				}
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			var allocs float64
			e.Spawn("measure", func(p *Proc) {
				allocs = testing.AllocsPerRun(1000, body(t, e, p))
				e.Stop()
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			e.Reset()
			if allocs != 0 {
				t.Errorf("%v allocations per run, want 0", allocs)
			}
		})
	}
}

// TestChanBlockingRecvAllocs: 10 000 receives that each block until the
// value arrives allocate nothing when the value itself needs no allocation.
// The waiter queue empties after every wake, so popping it must keep its
// backing array.
func TestChanBlockingRecvAllocs(t *testing.T) {
	e := NewEngine()
	c := e.NewChan()
	tok := new(int)
	done := false
	var allocs float64
	e.Spawn("recv", func(p *Proc) {
		allocs = testing.AllocsPerRun(10000, func() {
			if c.Len() != 0 {
				t.Error("value already buffered: the receive would not block")
			}
			if v := c.Recv(p); v != tok {
				t.Errorf("Recv = %v, want the sent pointer", v)
			}
		})
		done = true
	})
	e.Spawn("send", func(p *Proc) {
		for !done {
			p.Advance(1)
			c.Send(tok)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("%v allocations per blocking Recv, want 0", allocs)
	}
}

// TestHeapOrderProperty pushes keys with random times, some at the top of
// the time range, and checks popMin yields increasing (at, seq) order — the
// invariant the engine's determinism rests on.
func TestHeapOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h eventHeap
	const n = 2000
	for seq := 0; seq < n; seq++ {
		at := Time(rng.Intn(97))
		if rng.Intn(4) == 0 {
			at = math.MaxUint64 - at
		}
		h.push(eventKey{at: at, seq: uint64(seq)})
	}
	prev := h.popMin()
	for i := 1; i < n; i++ {
		k := h.popMin()
		if k.at < prev.at || k.at == prev.at && k.seq < prev.seq {
			t.Fatalf("pop %d out of order: (%d,%d) after (%d,%d)", i, k.at, k.seq, prev.at, prev.seq)
		}
		prev = k
	}
	if len(h) != 0 {
		t.Errorf("heap holds %d keys after %d pops, want 0", len(h), n)
	}
}
