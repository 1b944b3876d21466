package qsmlib

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Wire message types of the sync protocol.

type planMsg struct {
	putWords int
	getReqs  int
}

type putSeg struct {
	h    core.Handle
	off  int   // contiguous start; -1 for indexed
	idx  []int // nil for contiguous
	vals []int64
}

type getReq struct {
	reqID int
	h     core.Handle
	off   int // contiguous start; -1 for indexed
	n     int
	idx   []int
}

type syncMsg struct {
	puts []putSeg
	reqs []getReq
}

type replyItem struct {
	reqID int
	vals  []int64
}

type replyMsg struct {
	items []replyItem
}

type pendingGet struct {
	dst []int64
	pos []int // reply value k lands in dst[pos[k]]; nil means dst[k]
}

// Software cost constants for local queue and memory work (cycles); the
// heavyweight buffer copies are charged by the msg layer.
const (
	enqueueFixed   = 16
	enqueuePerWord = 2
	localPerWord   = 4
	localPerSeg    = 16
)

// qctx is the per-node core.Ctx of the simulated machine.
type qctx struct {
	m    *Machine
	node *machine.Node
	comm *msg.Comm
	gen  int

	outPuts  [][]putSeg
	outReqs  [][]getReq
	selfReqs []getReq
	pending  []pendingGet
	inPuts   [][]putSeg // per source: puts received this phase, until applied

	// Scratch of putScattered/getScattered: the owner of each index of the
	// current call, and per-owner counts turned into fill cursors.
	ownerOf  []int32
	ownerPos []int

	commCycles sim.Time
	timeline   []PhaseSpan

	// Observability: nil-safe handles plus the last Sync's end time, which
	// delimits the compute span preceding the next Sync.
	rec           *obs.Recorder
	obsSyncs      *obs.Counter
	obsSyncCycles *obs.Histogram
	obsPutWords   *obs.Histogram
	obsGetWords   *obs.Histogram
	lastSyncEnd   sim.Time
}

// PhaseSpan records one Sync call on one node for the timeline facility.
type PhaseSpan struct {
	Phase      int
	Start, End sim.Time
	PutWords   int
	GetWords   int
}

var _ core.Ctx = (*qctx)(nil)

func newQctx(m *Machine, n *machine.Node) *qctx {
	p := m.P()
	c := &qctx{
		m:       m,
		node:    n,
		comm:    msg.NewComm(n, m.opts.SW),
		outPuts: make([][]putSeg, p),
		outReqs: make([][]getReq, p),
		inPuts:  make([][]putSeg, p),

		ownerPos: make([]int, p),
	}
	if rec := m.opts.Obs; rec != nil {
		c.rec = rec
		c.comm.Observe(rec)
		c.obsSyncs = rec.Counter("qsmlib", "syncs", "")
		c.obsSyncCycles = rec.Histogram("qsmlib", "sync_cycles", "", obs.ExpBuckets(1024, 2, 16))
		c.obsPutWords = rec.Histogram("qsmlib", "phase_put_words", "", obs.ExpBuckets(1, 4, 12))
		c.obsGetWords = rec.Histogram("qsmlib", "phase_get_words", "", obs.ExpBuckets(1, 4, 12))
	}
	return c
}

func (c *qctx) ID() int          { return c.node.ID() }
func (c *qctx) P() int           { return c.m.P() }
func (c *qctx) Rand() *rand.Rand { return c.node.Proc().Rand() }

func (c *qctx) Register(name string, n int) core.Handle {
	return c.m.register(name, n, core.LayoutSpec{})
}

// RegisterSpec registers an array with an explicit layout.
func (c *qctx) RegisterSpec(name string, n int, spec core.LayoutSpec) core.Handle {
	return c.m.register(name, n, spec)
}

// Free un-registers an array.
func (c *qctx) Free(h core.Handle) {
	c.busyComm(enqueueFixed)
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
	c.node.Busy(sim.Time(localPerSeg + localPerWord*len(dst)))
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
	c.node.Busy(sim.Time(localPerSeg + localPerWord*len(src)))
}

// Compute charges local algorithm work to the node's processor model.
func (c *qctx) Compute(b cpu.OpBlock) { c.node.Compute(b) }

// busyComm charges cycles of local library work, counted as communication.
func (c *qctx) busyComm(cycles sim.Time) {
	c.node.Busy(cycles)
	c.commCycles += cycles
}

func (c *qctx) bounds(a *array, off, n int) {
	if off < 0 || off+n > len(a.data) {
		panic(fmt.Sprintf("qsmlib: range [%d,%d) out of bounds for %q (len %d)", off, off+n, a.name, len(a.data)))
	}
}

// Put enqueues a contiguous write, split into per-owner segments.
func (c *qctx) Put(h core.Handle, off int, src []int64) {
	if len(src) == 0 {
		return
	}
	a := c.m.arr(h)
	c.bounds(a, off, len(src))
	c.busyComm(enqueueFixed + sim.Time(enqueuePerWord*len(src)))
	if spansCheap(a) {
		base := off
		a.lay.Spans(off, len(src), func(o, so, cnt int) {
			vals := make([]int64, cnt)
			copy(vals, src[so-base:so-base+cnt])
			c.outPuts[o] = append(c.outPuts[o], putSeg{h: h, off: so, vals: vals})
		})
		return
	}
	c.putScattered(a, h, seqIdx(off, len(src)), src)
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
	for _, ix := range idx {
		if ix < 0 || ix >= len(a.data) {
			panic(fmt.Sprintf("qsmlib: index %d out of range for %q (len %d)", ix, a.name, len(a.data)))
		}
	}
	c.busyComm(enqueueFixed + sim.Time(enqueuePerWord*len(src)))
	c.putScattered(a, h, idx, src)
}

// bucketByOwner is the counting pass shared by putScattered and
// getScattered: it records each index's owner in c.ownerOf and leaves in
// c.ownerPos[o] the position, within one array of len(idx) slots grouped by
// ascending owner, where owner o's first element goes.
func (c *qctx) bucketByOwner(a *array, idx []int) {
	if cap(c.ownerOf) < len(idx) {
		c.ownerOf = make([]int32, len(idx))
	}
	c.ownerOf = c.ownerOf[:len(idx)]
	clear(c.ownerPos)
	for i, ix := range idx {
		o := a.lay.OwnerOf(ix)
		c.ownerOf[i] = int32(o)
		c.ownerPos[o]++
	}
	start := 0
	for o, n := range c.ownerPos {
		c.ownerPos[o] = start
		start += n
	}
}

// putScattered splits a scattered write into one segment per owner, in
// ascending owner order with each segment's elements in input order. All
// segments of the call share one exact-size backing array per field.
func (c *qctx) putScattered(a *array, h core.Handle, idx []int, src []int64) {
	c.bucketByOwner(a, idx)
	segIdx := make([]int, len(idx))
	segVals := make([]int64, len(idx))
	for i, o := range c.ownerOf {
		k := c.ownerPos[o]
		segIdx[k] = idx[i]
		segVals[k] = src[i]
		c.ownerPos[o] = k + 1
	}
	// ownerPos[o] is now the end of owner o's run; its start is the end of
	// the previous owner's.
	start := 0
	for o, end := range c.ownerPos {
		if end > start {
			c.outPuts[o] = append(c.outPuts[o], putSeg{h: h, off: -1,
				idx: segIdx[start:end:end], vals: segVals[start:end:end]})
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
	c.busyComm(enqueueFixed + sim.Time(enqueuePerWord*len(dst)))
	if spansCheap(a) {
		base := off
		a.lay.Spans(off, len(dst), func(o, so, cnt int) {
			c.addGet(o, getReq{h: h, off: so, n: cnt}, pendingGet{dst: dst[so-base : so-base+cnt]})
		})
		return
	}
	c.getScattered(a, h, seqIdx(off, len(dst)), dst)
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
	for _, ix := range idx {
		if ix < 0 || ix >= len(a.data) {
			panic(fmt.Sprintf("qsmlib: index %d out of range for %q (len %d)", ix, a.name, len(a.data)))
		}
	}
	c.busyComm(enqueueFixed + sim.Time(enqueuePerWord*len(dst)))
	c.getScattered(a, h, idx, dst)
}

// getScattered is putScattered's counterpart for reads: one request per
// owner, ascending, carrying the owner's indices and the positions in dst
// their values land in.
func (c *qctx) getScattered(a *array, h core.Handle, idx []int, dst []int64) {
	c.bucketByOwner(a, idx)
	reqIdx := make([]int, len(idx))
	reqPos := make([]int, len(idx))
	for i, o := range c.ownerOf {
		k := c.ownerPos[o]
		reqIdx[k] = idx[i]
		reqPos[k] = i
		c.ownerPos[o] = k + 1
	}
	start := 0
	for o, end := range c.ownerPos {
		if end > start {
			c.addGet(o, getReq{h: h, off: -1, idx: reqIdx[start:end:end]},
				pendingGet{dst: dst, pos: reqPos[start:end:end]})
		}
		start = end
	}
}

func (c *qctx) addGet(owner int, rq getReq, pg pendingGet) {
	rq.reqID = len(c.pending)
	c.pending = append(c.pending, pg)
	if owner == c.ID() {
		c.selfReqs = append(c.selfReqs, rq)
		return
	}
	c.outReqs[owner] = append(c.outReqs[owner], rq)
}

func seqIdx(off, n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = off + i
	}
	return idx
}

// gather reads the request's words from the (pre-phase) array state.
func (c *qctx) gather(rq getReq) []int64 {
	a := c.m.arr(rq.h)
	if rq.idx == nil {
		vals := make([]int64, rq.n)
		copy(vals, a.data[rq.off:rq.off+rq.n])
		return vals
	}
	vals := make([]int64, len(rq.idx))
	for i, ix := range rq.idx {
		vals[i] = a.data[ix]
	}
	return vals
}

// scatter writes reply values into the requester's destination.
func scatter(pg pendingGet, vals []int64) {
	if pg.pos == nil {
		copy(pg.dst, vals)
		return
	}
	for k, v := range vals {
		pg.dst[pg.pos[k]] = v
	}
}

func words(segs []putSeg) int {
	w := 0
	for _, s := range segs {
		w += len(s.vals)
	}
	return w
}

func smBytes(sm *syncMsg) int {
	b := 0
	for _, s := range sm.puts {
		b += 16 + 8*len(s.vals)
		if s.idx != nil {
			b += 8 * len(s.idx)
		}
	}
	for _, r := range sm.reqs {
		b += 24
		if r.idx != nil {
			b += 8 * len(r.idx)
		}
	}
	return b
}

func replyBytes(rm *replyMsg) int {
	b := 0
	for _, it := range rm.items {
		b += 16 + 8*len(it.vals)
	}
	return b
}

// peerOrder returns the exchange schedule: staggered (node me talks to
// (me+r) mod p in round r) unless the machine is configured naive.
func (c *qctx) peerOrder() []int {
	p, me := c.P(), c.ID()
	order := make([]int, 0, p-1)
	if c.m.opts.NaiveExchange {
		for peer := 0; peer < p; peer++ {
			if peer != me {
				order = append(order, peer)
			}
		}
		return order
	}
	for r := 1; r < p; r++ {
		order = append(order, (me+r)%p)
	}
	return order
}

// Sync runs the bulk-synchronous exchange protocol described in the package
// comment and ends the phase.
func (c *qctx) Sync() {
	t0 := c.node.Now()
	span := PhaseSpan{Phase: c.gen, Start: t0}
	for _, segs := range c.outPuts {
		span.PutWords += words(segs) // outPuts[me] holds the self puts
	}
	span.GetWords = len(c.pending)
	p, me := c.P(), c.ID()
	order := c.peerOrder()
	gen := c.gen
	c.gen++
	tagPlan, tagData, tagReply := 3*gen, 3*gen+1, 3*gen+2

	// 1. Distribute the communications plan.
	for _, peer := range order {
		pm := planMsg{putWords: words(c.outPuts[peer]), getReqs: len(c.outReqs[peer])}
		c.comm.Send(peer, tagPlan, 16, pm)
	}
	expectData := make([]bool, p)
	for r := 1; r < p; r++ {
		peer := (me - r + p) % p
		pm := c.comm.Recv(peer, tagPlan).Payload.(planMsg)
		expectData[peer] = pm.putWords > 0 || pm.getReqs > 0
	}

	// 2. Data exchange (staggered by default): puts and get requests.
	for _, peer := range order {
		if len(c.outPuts[peer]) == 0 && len(c.outReqs[peer]) == 0 {
			continue
		}
		sm := &syncMsg{puts: c.outPuts[peer], reqs: c.outReqs[peer]}
		c.comm.Send(peer, tagData, smBytes(sm), sm)
	}

	// 3. Receive data; serve get replies from pre-phase state.
	for r := 1; r < p; r++ {
		peer := (me - r + p) % p
		if !expectData[peer] {
			continue
		}
		sm := c.comm.Recv(peer, tagData).Payload.(*syncMsg)
		c.inPuts[peer] = sm.puts
		if len(sm.reqs) > 0 {
			rm := &replyMsg{}
			w := 0
			for _, rq := range sm.reqs {
				vals := c.gather(rq)
				w += len(vals)
				rm.items = append(rm.items, replyItem{reqID: rq.reqID, vals: vals})
			}
			c.node.Busy(sim.Time(localPerSeg*len(sm.reqs) + localPerWord*w))
			c.comm.Send(peer, tagReply, replyBytes(rm), rm)
		}
	}

	// 4. Receive replies and fill destinations.
	for _, peer := range order {
		if len(c.outReqs[peer]) == 0 {
			continue
		}
		rm := c.comm.Recv(peer, tagReply).Payload.(*replyMsg)
		w := 0
		for _, it := range rm.items {
			scatter(c.pending[it.reqID], it.vals)
			w += len(it.vals)
		}
		c.node.Busy(sim.Time(localPerSeg*len(rm.items) + localPerWord*w))
	}

	// 5. Serve this node's own-partition gets.
	if len(c.selfReqs) > 0 {
		w := 0
		for _, rq := range c.selfReqs {
			vals := c.gather(rq)
			w += len(vals)
			scatter(c.pending[rq.reqID], vals)
		}
		c.node.Busy(sim.Time(localPerSeg*len(c.selfReqs) + localPerWord*w))
	}

	// 6. Apply writes in source order (self included), so concurrent writes
	// to one word resolve deterministically.
	c.inPuts[me] = c.outPuts[me]
	applied := 0
	for src, segs := range c.inPuts {
		for _, s := range segs {
			a := c.m.arr(s.h)
			if s.idx == nil {
				copy(a.data[s.off:s.off+len(s.vals)], s.vals)
			} else {
				for i, ix := range s.idx {
					a.data[ix] = s.vals[i]
				}
			}
			applied += len(s.vals)
		}
		c.inPuts[src] = nil
	}
	if applied > 0 {
		c.node.Busy(sim.Time(localPerWord * applied))
	}

	// 7. Reset phase state and synchronize.
	for i := range c.outPuts {
		c.outPuts[i] = nil
		c.outReqs[i] = nil
	}
	c.selfReqs = nil
	c.pending = nil

	if c.m.opts.TreeBarrier {
		c.comm.TreeBarrier()
	} else {
		c.comm.Barrier()
	}
	c.commCycles += c.node.Now() - t0
	span.End = c.node.Now()
	c.timeline = append(c.timeline, span)

	c.obsSyncs.Inc()
	c.obsSyncCycles.Observe(float64(span.End - t0))
	c.obsPutWords.Observe(float64(span.PutWords))
	c.obsGetWords.Observe(float64(span.GetWords))
	if c.rec.Tracing() {
		if t0 > c.lastSyncEnd {
			c.rec.Span(tracePid, me, "qsmlib", "compute", uint64(c.lastSyncEnd), uint64(t0),
				obs.Arg{Key: "phase", Val: int64(gen)})
		}
		c.rec.Span(tracePid, me, "qsmlib", fmt.Sprintf("sync %d", gen), uint64(t0), uint64(span.End),
			obs.Arg{Key: "phase", Val: int64(gen)},
			obs.Arg{Key: "put_words", Val: int64(span.PutWords)},
			obs.Arg{Key: "get_words", Val: int64(span.GetWords)})
	}
	c.lastSyncEnd = span.End
}
