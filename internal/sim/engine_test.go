package sim

import (
	"testing"
)

func TestEngineEventOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(10, func() { got = append(got, 1) })
	e.At(5, func() { got = append(got, 0) })
	e.At(10, func() { got = append(got, 2) }) // same time: schedule order
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order = %v, want %v", got, want)
		}
	}
	if e.Now() != 10 {
		t.Errorf("final time = %d, want 10", e.Now())
	}
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 150 {
		t.Errorf("After fired at %d, want 150", at)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcAdvance(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Spawn("walker", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Advance(7)
			times = append(times, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{7, 14, 21}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestProcInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		for i := 0; i < 4; i++ {
			name := string(rune('a' + i))
			d := Time(3 + i)
			e.Spawn(name, func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Advance(d)
					trace = append(trace, p.Name())
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 20 {
		t.Fatalf("trace lengths %d, %d; want 20", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic interleaving at %d: %v vs %v", i, a, b)
		}
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("boom", func(p *Proc) {
		p.Advance(1)
		panic("kaboom")
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected error from panicking process")
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal()
	e.Spawn("stuck", func(p *Proc) { s.Wait(p) })
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck" {
		t.Errorf("blocked = %v, want [stuck]", de.Blocked)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Spawn("counter", func(p *Proc) {
		for {
			p.Advance(1)
			n++
			if n == 10 {
				e.Stop()
				p.block() // never resumed; engine stops
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("n = %d, want 10", n)
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal()
	var woken []string
	for _, name := range []string{"p0", "p1", "p2"} {
		e.Spawn(name, func(p *Proc) {
			s.Wait(p)
			woken = append(woken, p.Name())
		})
	}
	e.At(42, func() { s.Fire() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woken) != 3 {
		t.Fatalf("woken = %v, want 3 processes", woken)
	}
	for i, w := range []string{"p0", "p1", "p2"} {
		if woken[i] != w {
			t.Errorf("wake order %v, want FIFO", woken)
			break
		}
	}
}

func TestSignalFireAfter(t *testing.T) {
	e := NewEngine()
	s := e.NewSignal()
	var at Time
	e.Spawn("w", func(p *Proc) {
		s.Wait(p)
		at = p.Now()
	})
	s.FireAfter(33)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 33 {
		t.Errorf("woke at %d, want 33", at)
	}
}

func TestChanFIFO(t *testing.T) {
	e := NewEngine()
	c := e.NewChan()
	var got []int
	e.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, c.Recv(p).(int))
		}
	})
	e.Spawn("send", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Advance(5)
			c.Send(i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("got %v, want [0 1 2]", got)
		}
	}
}

func TestChanSendAfterDelaysVisibility(t *testing.T) {
	e := NewEngine()
	c := e.NewChan()
	var at Time
	e.Spawn("recv", func(p *Proc) {
		c.Recv(p)
		at = p.Now()
	})
	e.Spawn("send", func(p *Proc) {
		c.SendAfter(100, "hello")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 100 {
		t.Errorf("received at %d, want 100", at)
	}
}

func TestChanTryRecv(t *testing.T) {
	e := NewEngine()
	c := e.NewChan()
	if _, ok := c.TryRecv(); ok {
		t.Error("TryRecv on empty chan reported a value")
	}
	c.Send(7)
	v, ok := c.TryRecv()
	if !ok || v.(int) != 7 {
		t.Errorf("TryRecv = %v,%v, want 7,true", v, ok)
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d, want 0", c.Len())
	}
}

func TestServerSerialises(t *testing.T) {
	e := NewEngine()
	s := e.NewServer()
	var ends []Time
	e.Spawn("a", func(p *Proc) {
		_, end := s.Use(10)
		ends = append(ends, end)
		_, end = s.Use(10) // queues behind the first use
		ends = append(ends, end)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ends[0] != 10 || ends[1] != 20 {
		t.Errorf("ends = %v, want [10 20]", ends)
	}
	if s.BusyCycles() != 20 || s.Uses() != 2 {
		t.Errorf("busy=%d uses=%d, want 20, 2", s.BusyCycles(), s.Uses())
	}
}

func TestServerIdleGap(t *testing.T) {
	e := NewEngine()
	s := e.NewServer()
	e.At(0, func() { s.Use(5) })
	e.At(100, func() {
		start, end := s.Use(5)
		if start != 100 || end != 105 {
			t.Errorf("start,end = %d,%d; want 100,105", start, end)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGateBlocksAtCapacity(t *testing.T) {
	e := NewEngine()
	g := e.NewGate(2)
	var order []string
	worker := func(name string, hold Time) func(*Proc) {
		return func(p *Proc) {
			g.Acquire(p)
			order = append(order, name+"+")
			p.Advance(hold)
			order = append(order, name+"-")
			g.Release()
		}
	}
	e.Spawn("a", worker("a", 10))
	e.Spawn("b", worker("b", 10))
	e.Spawn("c", worker("c", 10)) // must wait for a or b
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// c acquires only after a release.
	idx := func(s string) int {
		for i, v := range order {
			if v == s {
				return i
			}
		}
		return -1
	}
	if idx("c+") < idx("a-") {
		t.Errorf("order = %v: c acquired before a released", order)
	}
	if g.Free() != 2 {
		t.Errorf("free = %d, want 2", g.Free())
	}
}

func TestSpawnSeededRand(t *testing.T) {
	e := NewEngine()
	var a, b int64
	e.SpawnSeeded("r1", 42, func(p *Proc) { a = p.Rand().Int63() })
	e.SpawnSeeded("r2", 42, func(p *Proc) { b = p.Rand().Int63() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed produced different values: %d vs %d", a, b)
	}
}

func TestYieldRunsAfterQueuedEvents(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("p", func(p *Proc) {
		e.After(0, func() { order = append(order, "event") })
		p.Yield()
		order = append(order, "proc")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "event" || order[1] != "proc" {
		t.Errorf("order = %v, want [event proc]", order)
	}
}

func BenchmarkEngineEventThroughput(b *testing.B) {
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

func BenchmarkEngineManyProcs(b *testing.B) {
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

func TestAdvanceFromOutsidePanics(t *testing.T) {
	e := NewEngine()
	var p *Proc
	p = e.Spawn("victim", func(pp *Proc) { pp.Advance(10) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Advance from outside the process did not panic")
		}
	}()
	p.Advance(1)
}

func TestProcAccessors(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("named", func(pp *Proc) {
		if pp.ID() != 0 || pp.Name() != "named" || pp.Engine() != e {
			t.Error("accessors wrong")
		}
		if pp.Rand() != nil {
			t.Error("unseeded proc should have nil Rand")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !p.Done() {
		t.Error("Done() false after Run")
	}
}

func TestEventsCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.At(Time(i), func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Events() != 5 {
		t.Errorf("Events = %d, want 5", e.Events())
	}
}

func TestGateInvalidCapacityPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("NewGate(0) did not panic")
		}
	}()
	e.NewGate(0)
}
