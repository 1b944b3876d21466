package sim

// Chan is an unbounded FIFO message queue between simulated processes.
// Send never blocks; Recv blocks until a value is available. Values sent
// with a delivery delay become visible to receivers only once the delay
// elapses, which models network transit time.
//
// The buffer is a head/tail ring: removing the oldest value advances an
// index instead of reslicing, so a long-lived channel reuses one
// backing array at steady state rather than crawling down an ever-growing
// one and retaining everything behind the read point.
type Chan struct {
	e       *Engine
	buf     []interface{} // ring storage; len(buf) is the capacity
	head    int           // index of the oldest value
	count   int           // number of buffered values
	waiters []uint32      // refs of blocked receivers of either kind, FIFO
}

// popFront removes and returns q's oldest entry. The rest shift down, so the
// backing array is reused however often q empties and refills; reslicing
// past the head would leave a zero-capacity slice that the next append
// reallocates.
func popFront(q *[]uint32) uint32 {
	v := (*q)[0]
	n := copy(*q, (*q)[1:])
	*q = (*q)[:n]
	return v
}

// NewChan creates a channel bound to engine e.
func (e *Engine) NewChan() *Chan { return &Chan{e: e} }

// Send makes v available to receivers immediately.
func (c *Chan) Send(v interface{}) { c.deliver(v) }

// SendAfter makes v available to receivers d cycles from now. The in-flight
// value waits in a slot of the engine's call slab (the wire-delay shuttle)
// rather than in a closure, so a simulated message in transit allocates
// nothing once the slab is warm.
func (c *Chan) SendAfter(d Time, v interface{}) {
	if d == 0 {
		c.deliver(v)
		return
	}
	c.e.scheduleCall(c.e.now+d, call{ch: c, val: v})
}

func (c *Chan) deliver(v interface{}) {
	if c.count == len(c.buf) {
		c.grow()
	}
	c.buf[(c.head+c.count)%len(c.buf)] = v
	c.count++
	if len(c.waiters) > 0 {
		c.e.schedule(c.e.now, popFront(&c.waiters))
	}
}

// grow doubles the ring, unwrapping the values to the front.
func (c *Chan) grow() {
	capc := 2 * len(c.buf)
	if capc < 8 {
		capc = 8
	}
	nb := make([]interface{}, capc)
	for i := 0; i < c.count; i++ {
		nb[i] = c.buf[(c.head+i)%len(c.buf)]
	}
	c.buf = nb
	c.head = 0
}

// take removes and returns the oldest buffered value. count must be > 0.
func (c *Chan) take() interface{} {
	v := c.buf[c.head]
	c.buf[c.head] = nil
	c.head = (c.head + 1) % len(c.buf)
	c.count--
	return v
}

// Recv blocks the calling process until a value is available, then removes
// and returns the oldest value.
func (c *Chan) Recv(p *Proc) interface{} {
	p.checkCurrent("Chan.Recv")
	for c.count == 0 {
		c.waiters = append(c.waiters, p.ref)
		p.blockOn("chan recv")
	}
	return c.take()
}

// RecvStep is Recv for state-machine processes. On success it returns the
// oldest value and StepDone is NOT implied — the caller continues its step.
// When the channel is empty it queues sp as a waiter and returns ok=false
// with st = sp.Waiting(...); the step function must return st immediately,
// and its next invocation (after a send wakes it) retries the receive.
// Like Recv's loop, a retry can find the channel empty again if an earlier
// waiter took the value first.
func (c *Chan) RecvStep(sp *StepProc) (v interface{}, ok bool, st Status) {
	if c.count == 0 {
		c.waiters = append(c.waiters, sp.ref)
		return nil, false, sp.Waiting("chan recv")
	}
	return c.take(), true, StepDone
}

// TryRecv removes and returns the oldest value without blocking. The second
// result reports whether a value was available.
func (c *Chan) TryRecv() (interface{}, bool) {
	if c.count == 0 {
		return nil, false
	}
	return c.take(), true
}

// Len returns the number of values currently available.
func (c *Chan) Len() int { return c.count }
