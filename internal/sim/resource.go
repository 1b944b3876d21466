package sim

// Server models a device that serves requests one at a time in FIFO order,
// such as a network interface serialising bytes or a memory bank servicing
// accesses. Use does not block the calling process; it accounts for queueing
// by tracking when the device next becomes free. This matches devices that
// operate asynchronously from the processor.
type Server struct {
	e      *Engine
	freeAt Time
	busy   Time // total busy cycles, for utilisation reporting
	uses   uint64
}

// NewServer creates a server bound to engine e, free from time zero.
func (e *Engine) NewServer() *Server { return &Server{e: e} }

// Use reserves the server for d cycles starting as soon as it is free.
// It returns the time the reservation starts and the time it ends.
func (s *Server) Use(d Time) (start, end Time) {
	start = s.e.now
	if s.freeAt > start {
		start = s.freeAt
	}
	end = start + d
	s.freeAt = end
	s.busy += d
	s.uses++
	return start, end
}

// UseAt is Use but with an earliest start time t >= now, for reservations
// made on behalf of a future event.
func (s *Server) UseAt(t Time, d Time) (start, end Time) {
	start = t
	if s.freeAt > start {
		start = s.freeAt
	}
	end = start + d
	s.freeAt = end
	s.busy += d
	s.uses++
	return start, end
}

// FreeAt returns the earliest time the server is idle.
func (s *Server) FreeAt() Time { return s.freeAt }

// BusyCycles returns the cumulative busy time.
func (s *Server) BusyCycles() Time { return s.busy }

// Uses returns how many reservations have been made.
func (s *Server) Uses() uint64 { return s.uses }

// Gate is a counting semaphore with FIFO queueing for processes that must
// block while holding a simulated resource, such as a bus with a bounded
// number of outstanding transactions.
type Gate struct {
	e       *Engine
	free    int
	waiters []uint32 // refs of blocked processes, FIFO
}

// NewGate creates a gate with capacity cap.
func (e *Engine) NewGate(cap int) *Gate {
	if cap <= 0 {
		panic("sim: gate capacity must be positive")
	}
	return &Gate{e: e, free: cap}
}

// Acquire blocks the calling process until a slot is free, then takes it.
func (g *Gate) Acquire(p *Proc) {
	p.checkCurrent("Gate.Acquire")
	for g.free == 0 {
		g.waiters = append(g.waiters, p.ref)
		p.blockOn("gate acquire")
	}
	g.free--
}

// Release frees a slot and wakes the oldest waiter, if any.
func (g *Gate) Release() {
	g.free++
	if len(g.waiters) > 0 {
		g.e.schedule(g.e.now, popFront(&g.waiters))
	}
}

// Free returns the number of available slots.
func (g *Gate) Free() int { return g.free }
