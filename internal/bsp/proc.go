package bsp

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/cpu"
	"repro/internal/msg"
	"repro/internal/sim"
)

// Proc is one BSP processor: it checks and charges each call and queues it
// on the processor's superstep exchange.
type Proc struct {
	m *Machine
	x *msg.Exchange
}

// ID returns this processor's index.
func (pc *Proc) ID() int { return pc.x.ID() }

// P returns the machine size.
func (pc *Proc) P() int { return pc.m.P() }

// Rand returns the processor's deterministic random source.
func (pc *Proc) Rand() *rand.Rand { return pc.x.Node.Proc().Rand() }

// Register allocates (or resolves) a named region of size words, one
// private copy per processor. Collective; Sync before use.
func (pc *Proc) Register(name string, size int) Region {
	return pc.m.register(name, size)
}

// Compute charges local work to the processor model.
func (pc *Proc) Compute(b cpu.OpBlock) { pc.x.Node.Compute(b) }

// enqueue checks a call addressed to processor dst and charges the library
// work of queueing its n words.
func (pc *Proc) enqueue(dst, n int) {
	if dst < 0 || dst >= pc.P() {
		panic(fmt.Sprintf("bsp: invalid processor %d", dst))
	}
	pc.x.Busy(msg.EnqueueFixed + sim.Time(msg.EnqueuePerWord*n))
}

func (pc *Proc) bounds(r *region, off, n int) {
	if off < 0 || off+n > r.size {
		panic(fmt.Sprintf("bsp: range [%d,%d) out of bounds for %q (size %d)", off, off+n, r.name, r.size))
	}
}

func (pc *Proc) checkIdx(r *region, idx []int) {
	for _, ix := range idx {
		if ix < 0 || ix >= r.size {
			panic(fmt.Sprintf("bsp: index %d out of range for %q (size %d)", ix, r.name, r.size))
		}
	}
}

// Put enqueues a write of vals into dst's copy of r at off, effective at
// the end of the superstep (bsp_put).
func (pc *Proc) Put(dst int, r Region, off int, vals []int64) {
	if len(vals) == 0 {
		return
	}
	pc.bounds(pc.m.reg(r), off, len(vals))
	pc.enqueue(dst, len(vals))
	pc.x.Put(dst, int(r), off, slices.Clone(vals))
}

// PutIndexed enqueues scattered writes into dst's copy of r.
func (pc *Proc) PutIndexed(dst int, r Region, idx []int, vals []int64) {
	if len(idx) != len(vals) {
		panic(fmt.Sprintf("bsp: PutIndexed len(idx)=%d != len(vals)=%d", len(idx), len(vals)))
	}
	if len(idx) == 0 {
		return
	}
	pc.putIndexed(dst, r, slices.Clone(idx), slices.Clone(vals))
}

// putIndexed is PutIndexed on slices the exchange may keep.
func (pc *Proc) putIndexed(dst int, r Region, idx []int, vals []int64) {
	pc.checkIdx(pc.m.reg(r), idx)
	pc.enqueue(dst, len(vals))
	pc.x.PutIndexed(dst, int(r), idx, vals)
}

// Get enqueues a read of src's copy of r into dstBuf; the values are those
// at the start of the superstep's end (bsp_hpget semantics).
func (pc *Proc) Get(src int, r Region, off int, dstBuf []int64) {
	if len(dstBuf) == 0 {
		return
	}
	pc.bounds(pc.m.reg(r), off, len(dstBuf))
	pc.enqueue(src, len(dstBuf))
	pc.x.Get(src, int(r), off, dstBuf)
}

// GetIndexed enqueues scattered reads from src's copy of r.
func (pc *Proc) GetIndexed(src int, r Region, idx []int, dstBuf []int64) {
	if len(idx) != len(dstBuf) {
		panic(fmt.Sprintf("bsp: GetIndexed len(idx)=%d != len(dst)=%d", len(idx), len(dstBuf)))
	}
	if len(idx) == 0 {
		return
	}
	pc.getIndexed(src, r, slices.Clone(idx), dstBuf, nil)
}

// getIndexed is GetIndexed on an index slice the exchange may keep: word
// idx[k] lands in dst[pos[k]], or in dst[k] when pos is nil.
func (pc *Proc) getIndexed(src int, r Region, idx []int, dst []int64, pos []int) {
	pc.checkIdx(pc.m.reg(r), idx)
	pc.enqueue(src, len(idx))
	pc.x.GetIndexed(src, int(r), idx, dst, pos)
}

// ReadLocal reads this processor's own copy of r immediately.
func (pc *Proc) ReadLocal(r Region, off int, dst []int64) {
	reg := pc.m.reg(r)
	pc.bounds(reg, off, len(dst))
	copy(dst, reg.data[pc.ID()][off:off+len(dst)])
	pc.x.Node.Busy(sim.Time(msg.LocalPerSeg + msg.LocalPerWord*len(dst)))
}

// WriteLocal writes this processor's own copy of r immediately.
func (pc *Proc) WriteLocal(r Region, off int, vals []int64) {
	reg := pc.m.reg(r)
	pc.bounds(reg, off, len(vals))
	copy(reg.data[pc.ID()][off:off+len(vals)], vals)
	pc.x.Node.Busy(sim.Time(msg.LocalPerSeg + msg.LocalPerWord*len(vals)))
}

// Sync ends the superstep with the exchange protocol (see msg.Exchange):
// gets see the state before any of the superstep's puts, and puts apply in
// source order.
func (pc *Proc) Sync() { pc.x.Sync() }
