package par

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cpu"
)

// proc is the per-processor core.Ctx of the native machine.
type proc struct {
	m    *Machine
	id   int
	rng  *rand.Rand
	gets []getOp
}

type getOp struct {
	h   core.Handle
	off int
	idx []int // nil for contiguous
	dst []int64
}

var _ core.Ctx = (*proc)(nil)

func (pc *proc) ID() int          { return pc.id }
func (pc *proc) P() int           { return pc.m.p }
func (pc *proc) Rand() *rand.Rand { return pc.rng }

func (pc *proc) Register(name string, n int) core.Handle {
	return pc.m.register(name, n, core.LayoutSpec{})
}

// RegisterSpec registers an array with an explicit layout.
func (pc *proc) RegisterSpec(name string, n int, spec core.LayoutSpec) core.Handle {
	return pc.m.register(name, n, spec)
}

// Free un-registers an array.
func (pc *proc) Free(h core.Handle) { pc.m.free(h) }

// ReadLocal immediately reads from this processor's own partition. Only the
// owner ever writes those words outside Sync, so the read is race-free.
func (pc *proc) ReadLocal(h core.Handle, off int, dst []int64) {
	if len(dst) == 0 {
		return
	}
	a := pc.m.lookup(h)
	pc.bounds(a, off, len(dst))
	if !a.lay.OwnsRange(pc.id, off, len(dst)) {
		panic(fmt.Sprintf("par: ReadLocal of %q[%d:%d) not owned by proc %d", a.name, off, off+len(dst), pc.id))
	}
	copy(dst, a.data[off:off+len(dst)])
}

// WriteLocal immediately writes into this processor's own partition.
func (pc *proc) WriteLocal(h core.Handle, off int, src []int64) {
	if len(src) == 0 {
		return
	}
	a := pc.m.lookup(h)
	pc.bounds(a, off, len(src))
	if !a.lay.OwnsRange(pc.id, off, len(src)) {
		panic(fmt.Sprintf("par: WriteLocal of %q[%d:%d) not owned by proc %d", a.name, off, off+len(src), pc.id))
	}
	copy(a.data[off:off+len(src)], src)
}

// Put enqueues the write, routed to each destination word's owner so that
// applying writes after the barrier touches only owner-disjoint state (no
// two goroutines ever race on a word even when the algorithm's contention
// kappa exceeds one).
func (pc *proc) Put(h core.Handle, off int, src []int64) {
	if len(src) == 0 {
		return
	}
	a := pc.m.lookup(h)
	pc.bounds(a, off, len(src))
	p := pc.m.p
	base := off
	a.lay.Spans(off, len(src), func(o, so, cnt int) {
		vals := make([]int64, cnt)
		copy(vals, src[so-base:so-base+cnt])
		box := &pc.m.mail[pc.id*p+o]
		*box = append(*box, putSeg{h: h, off: so, vals: vals})
	})
}

// PutIndexed enqueues scattered writes, grouped by owner.
func (pc *proc) PutIndexed(h core.Handle, idx []int, src []int64) {
	if len(idx) != len(src) {
		panic(fmt.Sprintf("par: PutIndexed len(idx)=%d != len(src)=%d", len(idx), len(src)))
	}
	if len(idx) == 0 {
		return
	}
	a := pc.m.lookup(h)
	p := pc.m.p
	byOwner := make(map[int]*putSeg)
	for i, ix := range idx {
		if ix < 0 || ix >= len(a.data) {
			panic(fmt.Sprintf("par: index %d out of range for %q (len %d)", ix, a.name, len(a.data)))
		}
		o := a.lay.OwnerOf(ix)
		seg := byOwner[o]
		if seg == nil {
			seg = &putSeg{h: h}
			byOwner[o] = seg
		}
		seg.idx = append(seg.idx, ix)
		seg.vals = append(seg.vals, src[i])
	}
	for o, seg := range byOwner {
		box := &pc.m.mail[pc.id*p+o]
		*box = append(*box, *seg)
	}
}

// Get enqueues a contiguous read, satisfied during Sync from pre-phase state.
func (pc *proc) Get(h core.Handle, off int, dst []int64) {
	if len(dst) == 0 {
		return
	}
	a := pc.m.lookup(h)
	pc.bounds(a, off, len(dst))
	pc.gets = append(pc.gets, getOp{h: h, off: off, dst: dst})
}

// GetIndexed enqueues scattered reads.
func (pc *proc) GetIndexed(h core.Handle, idx []int, dst []int64) {
	if len(idx) != len(dst) {
		panic(fmt.Sprintf("par: GetIndexed len(idx)=%d != len(dst)=%d", len(idx), len(dst)))
	}
	if len(idx) == 0 {
		return
	}
	pc.gets = append(pc.gets, getOp{h: h, idx: idx, dst: dst})
}

// Sync ends the phase: reads see pre-phase state, then routed writes are
// applied by their owners, then all processors synchronize.
func (pc *proc) Sync() {
	m := pc.m
	b := m.barrier

	// Round 1: all enqueues published (the mail rows are written only by
	// their source goroutine; the barrier orders them before readers).
	b.Wait(pc.id)

	// Serve this processor's gets directly from the shared arrays, which
	// still hold pre-phase values.
	for _, g := range pc.gets {
		a := m.arrays[g.h]
		if g.idx == nil {
			copy(g.dst, a.data[g.off:g.off+len(g.dst)])
			continue
		}
		for i, ix := range g.idx {
			g.dst[i] = a.data[ix]
		}
	}
	pc.gets = pc.gets[:0]

	// Round 2: all reads complete before any write lands.
	b.Wait(pc.id)

	// Apply writes routed to this processor, in source order so concurrent
	// writes to one word resolve deterministically (highest source wins).
	p := m.p
	for src := 0; src < p; src++ {
		box := &m.mail[src*p+pc.id]
		for _, seg := range *box {
			a := m.arrays[seg.h]
			if seg.idx == nil {
				copy(a.data[seg.off:seg.off+len(seg.vals)], seg.vals)
				continue
			}
			for i, ix := range seg.idx {
				a.data[ix] = seg.vals[i]
			}
		}
		*box = (*box)[:0]
	}

	// Round 3: writes visible to the next phase.
	b.Wait(pc.id)
}

// Compute is a no-op on the native backend: the local work is real. The
// charge is still observable through core.RunProfiled.
func (pc *proc) Compute(cpu.OpBlock) {}

func (pc *proc) bounds(a *array, off, n int) {
	if off < 0 || off+n > len(a.data) {
		panic(fmt.Sprintf("par: range [%d,%d) out of bounds for %q (len %d)", off, off+n, a.name, len(a.data)))
	}
}
