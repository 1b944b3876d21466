// Package par is the native backend of the QSM model: a bulk-synchronous
// runtime that executes a core.Program on p real goroutines with hand-rolled
// synchronization primitives. It gives the same phase semantics as the
// simulated machine — puts become visible at Sync, gets read the state the
// phase started with — so an algorithm validated on the simulator runs
// unchanged, in parallel, on real hardware.
//
// It has two jobs. It is the independent reference of the conformance
// checks: it shares no code with the superstep exchange that the simulated
// machine and the QSM-on-BSP emulation both end their phases with, so a
// bug there cannot hide in it. And it is the native runtime that
// examples/quickstart and examples/sorting run on.
package par

import (
	"runtime"
	"sync/atomic"
)

// Barrier synchronizes a fixed group of p participants. Each participant
// passes its own index to Wait; Wait returns only after all p have arrived.
type Barrier interface {
	Wait(id int)
}

// SpinBarrier is a sense-reversing centralized barrier. Arrivals are counted
// with a single atomic; the last arrival flips the global sense, releasing
// the spinners. Spinning yields to the scheduler, so it remains correct
// (if slower) when goroutines outnumber cores.
type SpinBarrier struct {
	n     int32
	count atomic.Int32
	sense atomic.Uint32
	local []uint32 // per-participant sense, padded to avoid false sharing
}

const pad = 16 // uint32s per cache line (64 bytes)

// NewSpinBarrier creates a sense-reversing barrier for n participants.
func NewSpinBarrier(n int) *SpinBarrier {
	if n <= 0 {
		panic("par: barrier size must be positive")
	}
	return &SpinBarrier{n: int32(n), local: make([]uint32, n*pad)}
}

// Wait implements Barrier.
func (b *SpinBarrier) Wait(id int) {
	s := b.local[id*pad] ^ 1
	b.local[id*pad] = s
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.sense.Store(s)
		return
	}
	for i := 0; b.sense.Load() != s; i++ {
		if i%64 == 63 {
			runtime.Gosched()
		}
	}
}

// ChanBarrier is a two-round channel-based dissemination barrier: each
// participant signals a coordinator, which releases everyone. It blocks in
// the scheduler instead of spinning, which is kinder under oversubscription;
// the package benchmarks compare the two (a Table 3 "L" ablation).
type ChanBarrier struct {
	n       int
	arrive  chan struct{}
	release []chan struct{}
}

// NewChanBarrier creates a channel-based barrier for n participants.
// Participant 0 acts as the coordinator.
func NewChanBarrier(n int) *ChanBarrier {
	if n <= 0 {
		panic("par: barrier size must be positive")
	}
	b := &ChanBarrier{n: n, arrive: make(chan struct{}, n)}
	b.release = make([]chan struct{}, n)
	for i := range b.release {
		b.release[i] = make(chan struct{}, 1)
	}
	return b
}

// Wait implements Barrier.
func (b *ChanBarrier) Wait(id int) {
	if id == 0 {
		for i := 0; i < b.n-1; i++ {
			<-b.arrive
		}
		for i := 1; i < b.n; i++ {
			b.release[i] <- struct{}{}
		}
		return
	}
	b.arrive <- struct{}{}
	<-b.release[id]
}
