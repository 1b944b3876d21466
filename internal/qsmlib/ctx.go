package qsmlib

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/msg"
	"repro/internal/sim"
)

// qctx is the per-node core.Ctx of the simulated machine: it checks and
// charges each call and queues it on the node's superstep exchange.
type qctx struct {
	m        *Machine
	x        *msg.Exchange
	byOwner  core.ByOwner // scratch of putScattered/getScattered
	timeline []msg.PhaseSpan
}

var _ core.Ctx = (*qctx)(nil)

func (c *qctx) ID() int          { return c.x.ID() }
func (c *qctx) P() int           { return c.m.P() }
func (c *qctx) Rand() *rand.Rand { return c.x.Node.Proc().Rand() }

func (c *qctx) Register(name string, n int) core.Handle {
	return c.m.register(name, n, core.LayoutSpec{})
}

// RegisterSpec registers an array with an explicit layout.
func (c *qctx) RegisterSpec(name string, n int, spec core.LayoutSpec) core.Handle {
	return c.m.register(name, n, spec)
}

// Free un-registers an array.
func (c *qctx) Free(h core.Handle) {
	c.x.Busy(msg.EnqueueFixed)
	c.m.free(h)
}

// spansCheap reports whether per-owner spans of the array are O(p).
func spansCheap(a *array) bool {
	switch a.lay.Kind {
	case core.LayoutBlocked, core.LayoutDefault, core.LayoutSingle:
		return true
	}
	return false
}

// ReadLocal immediately reads from this node's own partition.
func (c *qctx) ReadLocal(h core.Handle, off int, dst []int64) {
	if len(dst) == 0 {
		return
	}
	a := c.m.arr(h)
	c.bounds(a, off, len(dst))
	if !a.lay.OwnsRange(c.ID(), off, len(dst)) {
		panic(fmt.Sprintf("qsmlib: ReadLocal of %q[%d:%d) not owned by node %d", a.name, off, off+len(dst), c.ID()))
	}
	copy(dst, a.data[off:off+len(dst)])
	c.x.Node.Busy(sim.Time(msg.LocalPerSeg + msg.LocalPerWord*len(dst)))
}

// WriteLocal immediately writes into this node's own partition.
func (c *qctx) WriteLocal(h core.Handle, off int, src []int64) {
	if len(src) == 0 {
		return
	}
	a := c.m.arr(h)
	c.bounds(a, off, len(src))
	if !a.lay.OwnsRange(c.ID(), off, len(src)) {
		panic(fmt.Sprintf("qsmlib: WriteLocal of %q[%d:%d) not owned by node %d", a.name, off, off+len(src), c.ID()))
	}
	copy(a.data[off:off+len(src)], src)
	c.x.Node.Busy(sim.Time(msg.LocalPerSeg + msg.LocalPerWord*len(src)))
}

// Compute charges local algorithm work to the node's processor model.
func (c *qctx) Compute(b cpu.OpBlock) { c.x.Node.Compute(b) }

// enqueue charges the library work of queueing one call of n words.
func (c *qctx) enqueue(n int) {
	c.x.Busy(msg.EnqueueFixed + sim.Time(msg.EnqueuePerWord*n))
}

func (c *qctx) bounds(a *array, off, n int) {
	if off < 0 || off+n > len(a.data) {
		panic(fmt.Sprintf("qsmlib: range [%d,%d) out of bounds for %q (len %d)", off, off+n, a.name, len(a.data)))
	}
}

func (c *qctx) checkIdx(a *array, idx []int) {
	for _, ix := range idx {
		if ix < 0 || ix >= len(a.data) {
			panic(fmt.Sprintf("qsmlib: index %d out of range for %q (len %d)", ix, a.name, len(a.data)))
		}
	}
}

// Put enqueues a contiguous write, split into per-owner segments.
func (c *qctx) Put(h core.Handle, off int, src []int64) {
	if len(src) == 0 {
		return
	}
	a := c.m.arr(h)
	c.bounds(a, off, len(src))
	c.enqueue(len(src))
	if spansCheap(a) {
		a.lay.Spans(off, len(src), func(o, so, cnt int) {
			vals := make([]int64, cnt)
			copy(vals, src[so-off:so-off+cnt])
			c.x.Put(o, int(h), so, vals)
		})
		return
	}
	c.putScattered(a, h, core.SeqIdx(off, len(src)), src)
}

// PutIndexed enqueues scattered writes.
func (c *qctx) PutIndexed(h core.Handle, idx []int, src []int64) {
	if len(idx) != len(src) {
		panic(fmt.Sprintf("qsmlib: PutIndexed len(idx)=%d != len(src)=%d", len(idx), len(src)))
	}
	if len(idx) == 0 {
		return
	}
	a := c.m.arr(h)
	c.checkIdx(a, idx)
	c.enqueue(len(src))
	c.putScattered(a, h, idx, src)
}

// putScattered splits a scattered write into one segment per owner, in
// ascending owner order with each segment's elements in input order. All
// segments of the call share one exact-size backing array per field.
func (c *qctx) putScattered(a *array, h core.Handle, idx []int, src []int64) {
	segIdx := make([]int, len(idx))
	segVals := make([]int64, len(idx))
	c.byOwner.Count(a.lay, idx)
	for i, ix := range idx {
		k := c.byOwner.Slot(i)
		segIdx[k], segVals[k] = ix, src[i]
	}
	start := 0
	for o, end := range c.byOwner.Ends {
		if end > start {
			c.x.PutIndexed(o, int(h), segIdx[start:end:end], segVals[start:end:end])
		}
		start = end
	}
}

// Get enqueues a contiguous read.
func (c *qctx) Get(h core.Handle, off int, dst []int64) {
	if len(dst) == 0 {
		return
	}
	a := c.m.arr(h)
	c.bounds(a, off, len(dst))
	c.enqueue(len(dst))
	if spansCheap(a) {
		a.lay.Spans(off, len(dst), func(o, so, cnt int) {
			c.x.Get(o, int(h), so, dst[so-off:so-off+cnt])
		})
		return
	}
	c.getScattered(a, h, core.SeqIdx(off, len(dst)), dst)
}

// GetIndexed enqueues scattered reads.
func (c *qctx) GetIndexed(h core.Handle, idx []int, dst []int64) {
	if len(idx) != len(dst) {
		panic(fmt.Sprintf("qsmlib: GetIndexed len(idx)=%d != len(dst)=%d", len(idx), len(dst)))
	}
	if len(idx) == 0 {
		return
	}
	a := c.m.arr(h)
	c.checkIdx(a, idx)
	c.enqueue(len(dst))
	c.getScattered(a, h, idx, dst)
}

// getScattered is putScattered's counterpart for reads: one request per
// owner, ascending, carrying the owner's indices and the positions in dst
// their values land in.
func (c *qctx) getScattered(a *array, h core.Handle, idx []int, dst []int64) {
	reqIdx := make([]int, len(idx))
	reqPos := make([]int, len(idx))
	c.byOwner.Count(a.lay, idx)
	for i, ix := range idx {
		k := c.byOwner.Slot(i)
		reqIdx[k], reqPos[k] = ix, i
	}
	start := 0
	for o, end := range c.byOwner.Ends {
		if end > start {
			c.x.GetIndexed(o, int(h), reqIdx[start:end:end], dst, reqPos[start:end:end])
		}
		start = end
	}
}

// Sync ends the phase with the superstep exchange (see msg.Exchange).
func (c *qctx) Sync() {
	c.timeline = append(c.timeline, c.x.Sync())
}
