package msg

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Software costs (cycles) of a library's local queue and memory work; the
// heavyweight buffer copies are charged by Send and Recv.
const (
	EnqueueFixed   = 16
	EnqueuePerWord = 2
	LocalPerWord   = 4
	LocalPerSeg    = 16
)

// Wire message types of the superstep exchange. A segment addresses one
// memory space of its destination (an array or a region), which
// Config.Words resolves to words.

type planMsg struct {
	putWords int
	getReqs  int
}

type putSeg struct {
	space int
	off   int   // contiguous start; -1 for indexed
	idx   []int // nil for contiguous
	vals  []int64
}

type getReq struct {
	reqID int
	space int
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

// Names are the observability names one library's supersteps record under.
type Names struct {
	Subsystem string // metric subsystem, trace category and trace process name
	Step      string // what a superstep is called: <Step>_put_words, span arg key
	Thread    string // trace thread name prefix, followed by the node id
	Pid       int    // trace process id, distinct per library so two can share a recorder
}

// Config is what one library's exchanges share.
type Config struct {
	SW    SWParams // zero value uses DefaultSW
	Naive bool     // send to peers in index order instead of staggered
	Tree  bool     // end supersteps with TreeBarrier instead of Barrier
	// Words returns node's words of a memory space: where puts to the space
	// land and what gets of it read.
	Words func(node, space int) []int64
	Names Names
	Obs   *obs.Recorder
}

// Stats summarise a completed run.
type Stats struct {
	TotalCycles sim.Time // end-to-end simulated time
	// CommCycles and CompCycles are per-node library (communication) and
	// Compute time.
	CommCycles []sim.Time
	CompCycles []sim.Time
	MsgsSent   uint64
	BytesSent  uint64
}

// MaxComm returns the bottleneck node's communication time.
func (s Stats) MaxComm() sim.Time { return maxTime(s.CommCycles) }

// MaxComp returns the bottleneck node's computation time.
func (s Stats) MaxComp() sim.Time { return maxTime(s.CompCycles) }

func maxTime(ts []sim.Time) sim.Time {
	var m sim.Time
	for _, t := range ts {
		m = max(m, t)
	}
	return m
}

// Library is a simulated multiprocessor running one bulk-synchronous
// library, each node with its own Exchange.
type Library struct {
	MP  *machine.Multiprocessor
	cfg Config
	xs  []*Exchange // per node, from the last Run
}

// NewLibrary builds a p-node library machine. A zero net uses
// machine.DefaultNet; a nil model uses Table 2 analytic.
func NewLibrary(p int, net machine.NetParams, model func(id int) cpu.Model, cfg Config) *Library {
	if net == (machine.NetParams{}) {
		net = machine.DefaultNet()
	}
	if cfg.SW == (SWParams{}) {
		cfg.SW = DefaultSW()
	}
	l := &Library{MP: machine.New(p, net, model), cfg: cfg}
	if cfg.Obs != nil {
		l.MP.Observe(cfg.Obs)
	}
	return l
}

// P returns the node count.
func (l *Library) P() int { return l.MP.P() }

// Run executes body on every node with the node's Exchange and returns when
// the simulation completes.
func (l *Library) Run(seed int64, body func(*Exchange)) error {
	l.xs = make([]*Exchange, l.P())
	nm, rec := l.cfg.Names, l.cfg.Obs
	if rec.Tracing() {
		rec.NamePid(nm.Pid, nm.Subsystem)
		for i := range l.xs {
			rec.NameTid(nm.Pid, i, fmt.Sprintf("%s%d", nm.Thread, i))
		}
	}
	err := l.MP.Run(seed, func(n *machine.Node) {
		x := newExchange(l, n)
		l.xs[n.ID()] = x
		body(x)
	})
	if rec != nil {
		for _, x := range l.xs {
			if x != nil {
				rec.Counter(nm.Subsystem, "comm_cycles", "").Add(uint64(x.CommCycles))
			}
		}
		for _, n := range l.MP.Nodes {
			rec.Counter(nm.Subsystem, "comp_cycles", "").Add(uint64(n.CompCycles))
		}
	}
	return err
}

// RunStats returns the measurements of the last Run.
func (l *Library) RunStats() Stats {
	s := Stats{TotalCycles: l.MP.E.Now()}
	for _, n := range l.MP.Nodes {
		s.MsgsSent += n.MsgsSent
		s.BytesSent += n.BytesSent
		s.CompCycles = append(s.CompCycles, n.CompCycles)
	}
	for _, x := range l.xs {
		var c sim.Time
		if x != nil {
			c = x.CommCycles
		}
		s.CommCycles = append(s.CommCycles, c)
	}
	return s
}

// PhaseSpan records one Sync on one node: when it began and ended in
// simulated time, the words it put and the get requests it issued.
type PhaseSpan struct {
	Phase      int
	Start, End sim.Time
	PutWords   int
	GetWords   int
}

// Exchange is one node's side of a superstep: the puts and gets queued since
// the last Sync, and the protocol that ends it (Section 3.1.2 of the paper).
// Sync first distributes a communications plan saying how many put words and
// get requests flow to each peer. Nodes then exchange data in a staggered
// order designed to reduce receive-side contention and avoid deadlock (node
// i talks to node (i+r) mod p in round r), or in index order when the
// library is naive. Owners serve get replies from pre-superstep state, serve
// their own gets, apply puts in source order (self included, so concurrent
// writes to one word resolve deterministically), and a barrier ends the
// superstep. All methods run on the node's own simulation process.
type Exchange struct {
	Node *machine.Node
	comm *Comm
	// CommCycles is the node's time in the library: enqueue charges (Busy)
	// and every Sync.
	CommCycles sim.Time

	cfg   *Config
	order []int // peers in send order
	gen   int

	outPuts  [][]putSeg // per destination, this node included
	outReqs  [][]getReq // per owner, this node excluded
	selfReqs []getReq
	pending  []pendingGet
	inPuts   [][]putSeg // per source: puts received this superstep, until applied
	expect   []bool     // per source: a data message is coming

	// Observability: nil-safe handles plus the last Sync's end time, which
	// delimits the compute span preceding the next Sync.
	rec           *obs.Recorder
	obsSyncs      *obs.Counter
	obsSyncCycles *obs.Histogram
	obsPutWords   *obs.Histogram
	obsGetWords   *obs.Histogram
	lastSyncEnd   sim.Time
}

func newExchange(l *Library, n *machine.Node) *Exchange {
	p, me := l.P(), n.ID()
	x := &Exchange{
		Node:    n,
		comm:    NewComm(n, l.cfg.SW),
		cfg:     &l.cfg,
		order:   make([]int, 0, p-1),
		outPuts: make([][]putSeg, p),
		outReqs: make([][]getReq, p),
		inPuts:  make([][]putSeg, p),
		expect:  make([]bool, p),
	}
	for r := 1; r < p; r++ {
		peer := (me + r) % p
		if l.cfg.Naive {
			peer = r - 1
			if peer >= me {
				peer++
			}
		}
		x.order = append(x.order, peer)
	}
	if rec := l.cfg.Obs; rec != nil {
		nm := l.cfg.Names
		x.rec = rec
		x.comm.Observe(rec)
		x.obsSyncs = rec.Counter(nm.Subsystem, "syncs", "")
		x.obsSyncCycles = rec.Histogram(nm.Subsystem, "sync_cycles", "", obs.ExpBuckets(1024, 2, 16))
		x.obsPutWords = rec.Histogram(nm.Subsystem, nm.Step+"_put_words", "", obs.ExpBuckets(1, 4, 12))
		x.obsGetWords = rec.Histogram(nm.Subsystem, nm.Step+"_get_words", "", obs.ExpBuckets(1, 4, 12))
	}
	return x
}

// ID returns the node's index.
func (x *Exchange) ID() int { return x.Node.ID() }

// Busy charges cycles of local library work, counted as communication.
func (x *Exchange) Busy(cycles sim.Time) {
	x.Node.Busy(cycles)
	x.CommCycles += cycles
}

// The enqueue methods below charge nothing and keep their slices until Sync;
// callers charge enqueue costs with Busy and hand over slices they no longer
// write.

// Put queues a write of vals into owner's words of space at off.
func (x *Exchange) Put(owner, space, off int, vals []int64) {
	x.outPuts[owner] = append(x.outPuts[owner], putSeg{space: space, off: off, vals: vals})
}

// PutIndexed queues a write of vals[k] into owner's word idx[k] of space.
func (x *Exchange) PutIndexed(owner, space int, idx []int, vals []int64) {
	x.outPuts[owner] = append(x.outPuts[owner], putSeg{space: space, off: -1, idx: idx, vals: vals})
}

// Get queues a read of owner's words [off, off+len(dst)) of space into dst.
func (x *Exchange) Get(owner, space, off int, dst []int64) {
	x.addGet(owner, getReq{space: space, off: off, n: len(dst)}, pendingGet{dst: dst})
}

// GetIndexed queues a read of owner's words idx of space: word idx[k] lands
// in dst[pos[k]], or in dst[k] when pos is nil.
func (x *Exchange) GetIndexed(owner, space int, idx []int, dst []int64, pos []int) {
	x.addGet(owner, getReq{space: space, off: -1, idx: idx}, pendingGet{dst: dst, pos: pos})
}

func (x *Exchange) addGet(owner int, rq getReq, pg pendingGet) {
	rq.reqID = len(x.pending)
	x.pending = append(x.pending, pg)
	if owner == x.ID() {
		x.selfReqs = append(x.selfReqs, rq)
		return
	}
	x.outReqs[owner] = append(x.outReqs[owner], rq)
}

// gather reads the request's words from this node's (pre-superstep) memory.
func (x *Exchange) gather(rq getReq) []int64 {
	data := x.cfg.Words(x.ID(), rq.space)
	if rq.idx == nil {
		vals := make([]int64, rq.n)
		copy(vals, data[rq.off:rq.off+rq.n])
		return vals
	}
	vals := make([]int64, len(rq.idx))
	for i, ix := range rq.idx {
		vals[i] = data[ix]
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

// Sync runs the exchange protocol and ends the superstep.
func (x *Exchange) Sync() PhaseSpan {
	t0 := x.Node.Now()
	span := PhaseSpan{Phase: x.gen, Start: t0, GetWords: len(x.pending)}
	for _, segs := range x.outPuts {
		span.PutWords += words(segs) // outPuts[me] holds the self puts
	}
	p, me := len(x.outPuts), x.ID()
	gen := x.gen
	x.gen++
	tagPlan, tagData, tagReply := 3*gen, 3*gen+1, 3*gen+2

	// 1. Distribute the communications plan.
	for _, peer := range x.order {
		pm := planMsg{putWords: words(x.outPuts[peer]), getReqs: len(x.outReqs[peer])}
		x.comm.Send(peer, tagPlan, 16, pm)
	}
	for r := 1; r < p; r++ {
		peer := (me - r + p) % p
		pm := x.comm.Recv(peer, tagPlan).Payload.(planMsg)
		x.expect[peer] = pm.putWords > 0 || pm.getReqs > 0
	}

	// 2. Data exchange: puts and get requests.
	for _, peer := range x.order {
		if len(x.outPuts[peer]) == 0 && len(x.outReqs[peer]) == 0 {
			continue
		}
		sm := &syncMsg{puts: x.outPuts[peer], reqs: x.outReqs[peer]}
		x.comm.Send(peer, tagData, smBytes(sm), sm)
	}

	// 3. Receive data; serve get replies from pre-superstep state.
	for r := 1; r < p; r++ {
		peer := (me - r + p) % p
		if !x.expect[peer] {
			continue
		}
		sm := x.comm.Recv(peer, tagData).Payload.(*syncMsg)
		x.inPuts[peer] = sm.puts
		if len(sm.reqs) > 0 {
			rm := &replyMsg{}
			w := 0
			for _, rq := range sm.reqs {
				vals := x.gather(rq)
				w += len(vals)
				rm.items = append(rm.items, replyItem{reqID: rq.reqID, vals: vals})
			}
			x.Node.Busy(sim.Time(LocalPerSeg*len(sm.reqs) + LocalPerWord*w))
			x.comm.Send(peer, tagReply, replyBytes(rm), rm)
		}
	}

	// 4. Receive replies and fill destinations.
	for _, peer := range x.order {
		if len(x.outReqs[peer]) == 0 {
			continue
		}
		rm := x.comm.Recv(peer, tagReply).Payload.(*replyMsg)
		w := 0
		for _, it := range rm.items {
			scatter(x.pending[it.reqID], it.vals)
			w += len(it.vals)
		}
		x.Node.Busy(sim.Time(LocalPerSeg*len(rm.items) + LocalPerWord*w))
	}

	// 5. Serve this node's gets of its own memory.
	if len(x.selfReqs) > 0 {
		w := 0
		for _, rq := range x.selfReqs {
			vals := x.gather(rq)
			w += len(vals)
			scatter(x.pending[rq.reqID], vals)
		}
		x.Node.Busy(sim.Time(LocalPerSeg*len(x.selfReqs) + LocalPerWord*w))
	}

	// 6. Apply writes in source order (self included), so concurrent writes
	// to one word resolve deterministically.
	x.inPuts[me] = x.outPuts[me]
	applied := 0
	for src, segs := range x.inPuts {
		for _, s := range segs {
			data := x.cfg.Words(me, s.space)
			if s.idx == nil {
				copy(data[s.off:s.off+len(s.vals)], s.vals)
			} else {
				for i, ix := range s.idx {
					data[ix] = s.vals[i]
				}
			}
			applied += len(s.vals)
		}
		x.inPuts[src] = nil
	}
	if applied > 0 {
		x.Node.Busy(sim.Time(LocalPerWord * applied))
	}

	// 7. Reset the superstep's state and synchronize.
	for i := range x.outPuts {
		x.outPuts[i] = nil
		x.outReqs[i] = nil
	}
	x.selfReqs = nil
	x.pending = nil

	if x.cfg.Tree {
		x.comm.TreeBarrier()
	} else {
		x.comm.Barrier()
	}
	span.End = x.Node.Now()
	x.CommCycles += span.End - t0
	x.observe(span)
	return span
}

// observe records a finished Sync's metrics and, when tracing, its span and
// the compute span before it.
func (x *Exchange) observe(span PhaseSpan) {
	x.obsSyncs.Inc()
	x.obsSyncCycles.Observe(float64(span.End - span.Start))
	x.obsPutWords.Observe(float64(span.PutWords))
	x.obsGetWords.Observe(float64(span.GetWords))
	if x.rec.Tracing() {
		nm, me, step := x.cfg.Names, x.ID(), int64(span.Phase)
		if span.Start > x.lastSyncEnd {
			x.rec.Span(nm.Pid, me, nm.Subsystem, "compute", uint64(x.lastSyncEnd), uint64(span.Start),
				obs.Arg{Key: nm.Step, Val: step})
		}
		x.rec.Span(nm.Pid, me, nm.Subsystem, fmt.Sprintf("sync %d", span.Phase), uint64(span.Start), uint64(span.End),
			obs.Arg{Key: nm.Step, Val: step},
			obs.Arg{Key: "put_words", Val: int64(span.PutWords)},
			obs.Arg{Key: "get_words", Val: int64(span.GetWords)})
	}
	x.lastSyncEnd = span.End
}
