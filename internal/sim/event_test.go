package sim

import (
	"cmp"
	"math"
	"slices"
	"testing"
)

// FuzzEventQueue drives the pending-event queue with an interleaving of At
// callbacks, Chan.SendAfter deliveries, Proc.Advance wakes and
// StepProc.Sleep wakes that the input chooses, with zero delays, repeated
// equal times and absolute times at the top of the time range, where a
// wrong borrow chain in the key compare would misorder. Every event must
// fire at its time and in the reference order: a stable sort by time over
// scheduling order.
//
// Each firing handler reads the next input bytes to decide what to schedule
// next, so the run ends when the input does. A delivery has no handler of
// its own: the next handler to fire drains the channel and logs what
// arrived, which is where the delivery fired relative to the handlers.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0x21, 0, 1, 1, 2, 0, 0, 0, 3})
	f.Add([]byte{0x12, 0, 0xff, 1, 0xfe, 0, 0xf0, 3, 0, 1, 0xff, 0, 0})
	f.Add([]byte{0x22, 3, 4, 0, 4, 1, 4, 2, 4, 0, 0, 1, 0, 0xe3, 7, 1, 6})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		e := NewEngine()
		c := e.NewChan()
		var (
			at    []Time // at[id] is when event id is due; ids follow scheduling order
			fired []int  // event ids in firing order
		)
		pc := 1
		next := func() byte {
			if pc >= len(prog) {
				return 0
			}
			pc++
			return prog[pc-1]
		}
		// due maps a byte to a time: now plus a short delay, often 0, or
		// one of the sixteen highest times.
		due := func(b byte) Time {
			if b >= 0xe0 {
				return max(e.Now(), math.MaxUint64-Time(b&0x0f))
			}
			d := []Time{0, 0, 1, 1, 2, 3, 5, 40}[b%8]
			return e.Now() + min(d, math.MaxUint64-e.Now())
		}
		sched := func(t Time) int {
			at = append(at, t)
			return len(at) - 1
		}
		drain := func() {
			for c.Len() > 0 {
				v, _ := c.TryRecv()
				fired = append(fired, v.(int))
			}
		}
		fire := func(id int) {
			drain()
			if e.Now() != at[id] {
				t.Fatalf("event %d fired at %d, due at %d", id, e.Now(), at[id])
			}
			fired = append(fired, id)
		}
		// act schedules one callback or delivery, or nothing, as the next
		// bytes say; it reports false once the input is used up.
		var act func() bool
		act = func() bool {
			if pc >= len(prog) {
				return false
			}
			kind, when := next()%3, due(next())
			switch {
			case kind == 0:
				id := sched(when)
				e.At(when, func() { fire(id); act() })
			case kind == 1 && when == e.Now():
				// SendAfter(0) delivers at once and schedules nothing.
				c.SendAfter(0, -1)
				if v, ok := c.TryRecv(); !ok || v != -1 {
					t.Fatalf("SendAfter(0) then TryRecv = %v,%v, want -1,true", v, ok)
				}
			case kind == 1:
				c.SendAfter(when-e.Now(), sched(when))
			}
			return true
		}
		for i := 0; i < int(prog[0]&0x0f)%4; i++ {
			id := sched(e.Now())
			e.Spawn("p", func(p *Proc) {
				fire(id)
				for act() {
					when := due(next())
					id = sched(when)
					p.Advance(when - p.Now())
					fire(id)
				}
			})
		}
		for i := 0; i < int(prog[0]>>4)%4; i++ {
			id := sched(e.Now())
			e.SpawnStep("s", func(sp *StepProc) Status {
				fire(id)
				if !act() {
					return StepDone
				}
				when := due(next())
				id = sched(when)
				return sp.Sleep(when - sp.Now())
			})
		}
		act()
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		drain()

		want := make([]int, len(at))
		for id := range want {
			want[id] = id
		}
		slices.SortStableFunc(want, func(a, b int) int { return cmp.Compare(at[a], at[b]) })
		if !slices.Equal(fired, want) {
			t.Fatalf("firing order %v, want %v (due times %v)", fired, want, at)
		}
		if e.Events() != uint64(len(at)) {
			t.Errorf("Events() = %d, want %d scheduled", e.Events(), len(at))
		}
	})
}
