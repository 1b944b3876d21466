package bsp

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/msg"
	"repro/internal/stats"
)

// QSMMachine runs QSM programs on the BSP machine by emulating shared
// memory: each shared array is distributed over the processors' private
// regions according to its layout, and every QSM operation becomes BSP puts
// and gets addressed to the owning processor. This is the bridging
// construction of Gibbons, Matias and Ramachandran that the paper's
// theoretical results rest on; the ext-emulation experiment measures its
// constant-factor overhead against the native QSM library.
type QSMMachine struct {
	M    *Machine
	opts Options
	def  core.LayoutKind

	arrays []*emuArray
	byName map[string]core.Handle
}

type emuArray struct {
	name  string
	n     int
	lay   core.Layout
	reg   Region
	slots []int32 // per-word slot within the owner's region; nil when computable
	frees int
	freed bool
}

// NewQSM builds a QSM-on-BSP machine with the given default array layout.
func NewQSM(p int, opts Options, def core.LayoutKind) *QSMMachine {
	return &QSMMachine{M: New(p, opts), opts: opts, def: def, byName: map[string]core.Handle{}}
}

// P returns the processor count.
func (qm *QSMMachine) P() int { return qm.M.P() }

// Run executes a QSM program through the emulation.
func (qm *QSMMachine) Run(prog core.Program) error {
	return qm.M.Run(func(pc *Proc) {
		prog(&qsmProc{qm: qm, pc: pc})
	})
}

// RunStats returns the underlying BSP machine's measurements.
func (qm *QSMMachine) RunStats() msg.Stats { return qm.M.RunStats() }

// Array reconstructs a shared array's contents from the distributed
// regions, for verification after Run. Returns nil if never registered.
func (qm *QSMMachine) Array(name string) []int64 {
	h, ok := qm.byName[name]
	if !ok {
		return nil
	}
	a := qm.arrays[h]
	out := make([]int64, a.n)
	for i := range out {
		owner := a.lay.OwnerOf(i)
		out[i] = qm.M.reg(a.reg).data[owner][a.slot(i)]
	}
	return out
}

// OwnerOf implements core.Ownership.
func (qm *QSMMachine) OwnerOf(h core.Handle, i int) int { return qm.arr(h).lay.OwnerOf(i) }

// PerOwner implements core.Ownership.
func (qm *QSMMachine) PerOwner(h core.Handle, off, n int) []int {
	return qm.arr(h).lay.PerOwner(off, n)
}

// RunProfiled executes prog with cost recording.
func (qm *QSMMachine) RunProfiled(prog core.Program, flags core.Flags) (*core.Profile, error) {
	col := core.NewCollector(qm.P(), qm, cpu.NewAnalytic(cpu.Table2()), flags)
	err := qm.Run(func(ctx core.Ctx) { prog(core.NewRecorder(ctx, col)) })
	profile, perr := col.Finish()
	if err == nil {
		err = perr
	}
	return profile, err
}

func (qm *QSMMachine) arr(h core.Handle) *emuArray {
	if h < 0 || int(h) >= len(qm.arrays) {
		panic(fmt.Sprintf("bsp: invalid QSM handle %d", h))
	}
	a := qm.arrays[h]
	if a.freed {
		panic(fmt.Sprintf("bsp: QSM array %q used after Free", a.name))
	}
	return a
}

// slot returns word i's index within its owner's region.
func (a *emuArray) slot(i int) int {
	switch a.lay.Kind {
	case core.LayoutCyclic:
		return i / a.lay.P
	case core.LayoutHashed:
		return int(a.slots[i])
	case core.LayoutSingle:
		return i
	default: // blocked
		o := a.lay.OwnerOf(i)
		return i - o*a.lay.Block
	}
}

func (qm *QSMMachine) register(name string, n int, spec core.LayoutSpec) core.Handle {
	if h, ok := qm.byName[name]; ok {
		if qm.arrays[h].n != n {
			panic(fmt.Sprintf("bsp: QSM array %q re-registered with size %d != %d", name, n, qm.arrays[h].n))
		}
		return h
	}
	h := core.Handle(len(qm.arrays))
	hseed := stats.Mix64(uint64(qm.opts.Seed), uint64(h)+0x5151)
	lay := core.ResolveLayout(spec, n, qm.P(), qm.def, hseed)
	a := &emuArray{name: name, n: n, lay: lay}
	var regionSize int
	switch lay.Kind {
	case core.LayoutCyclic:
		regionSize = (n + lay.P - 1) / lay.P
	case core.LayoutSingle:
		regionSize = n
	case core.LayoutHashed:
		a.slots = make([]int32, n)
		counts := make([]int32, lay.P)
		for i := 0; i < n; i++ {
			o := lay.OwnerOf(i)
			a.slots[i] = counts[o]
			counts[o]++
		}
		for _, c := range counts {
			if int(c) > regionSize {
				regionSize = int(c)
			}
		}
	default:
		regionSize = lay.Block
	}
	if regionSize == 0 {
		regionSize = 1
	}
	// The backing region name carries the handle so that a re-registered
	// QSM name (after a collective Free) gets a fresh region.
	a.reg = qm.M.register(fmt.Sprintf("qsm.%d.%s", h, name), regionSize)
	qm.arrays = append(qm.arrays, a)
	qm.byName[name] = h
	return h
}

// qsmProc adapts a BSP processor to core.Ctx.
type qsmProc struct {
	qm      *QSMMachine
	pc      *Proc
	byOwner core.ByOwner // scratch of putScattered/getScattered
}

var _ core.Ctx = (*qsmProc)(nil)

func (q *qsmProc) ID() int          { return q.pc.ID() }
func (q *qsmProc) P() int           { return q.pc.P() }
func (q *qsmProc) Rand() *rand.Rand { return q.pc.Rand() }

func (q *qsmProc) Register(name string, n int) core.Handle {
	return q.qm.register(name, n, core.LayoutSpec{})
}

func (q *qsmProc) RegisterSpec(name string, n int, spec core.LayoutSpec) core.Handle {
	return q.qm.register(name, n, spec)
}

// Free is collective: the array, and with it every processor's copy of its
// backing region, is destroyed once every processor has freed it.
func (q *qsmProc) Free(h core.Handle) {
	a := q.qm.arr(h)
	a.frees++
	if a.frees >= q.P() {
		a.freed = true
		delete(q.qm.byName, a.name)
		q.qm.M.drop(a.reg)
	}
}

func (q *qsmProc) Compute(b cpu.OpBlock) { q.pc.Compute(b) }

func (q *qsmProc) checkIdx(a *emuArray, idx []int) {
	for _, i := range idx {
		if i < 0 || i >= a.n {
			panic(fmt.Sprintf("bsp: index %d out of range for QSM array %q (len %d)", i, a.name, a.n))
		}
	}
}

func (q *qsmProc) Put(h core.Handle, off int, src []int64) {
	if len(src) == 0 {
		return
	}
	a := q.qm.arr(h)
	if off < 0 || off+len(src) > a.n {
		panic(fmt.Sprintf("bsp: range [%d,%d) out of bounds for QSM array %q", off, off+len(src), a.name))
	}
	if a.lay.Kind == core.LayoutBlocked || a.lay.Kind == core.LayoutSingle {
		base := off
		a.lay.Spans(off, len(src), func(owner, so, cnt int) {
			q.pc.Put(owner, a.reg, a.slot(so), src[so-base:so-base+cnt])
		})
		return
	}
	q.putScattered(a, core.SeqIdx(off, len(src)), src)
}

func (q *qsmProc) PutIndexed(h core.Handle, idx []int, src []int64) {
	if len(idx) != len(src) {
		panic("bsp: PutIndexed length mismatch")
	}
	if len(idx) == 0 {
		return
	}
	a := q.qm.arr(h)
	q.checkIdx(a, idx)
	q.putScattered(a, idx, src)
}

// putScattered issues one BSP PutIndexed per owner, in ascending owner
// order with each owner's words in input order.
func (q *qsmProc) putScattered(a *emuArray, idx []int, src []int64) {
	slots := make([]int, len(idx))
	vals := make([]int64, len(idx))
	q.byOwner.Count(a.lay, idx)
	for i, ix := range idx {
		k := q.byOwner.Slot(i)
		slots[k], vals[k] = a.slot(ix), src[i]
	}
	start := 0
	for o, end := range q.byOwner.Ends {
		if end > start {
			q.pc.putIndexed(o, a.reg, slots[start:end:end], vals[start:end:end])
		}
		start = end
	}
}

func (q *qsmProc) Get(h core.Handle, off int, dst []int64) {
	if len(dst) == 0 {
		return
	}
	a := q.qm.arr(h)
	if off < 0 || off+len(dst) > a.n {
		panic(fmt.Sprintf("bsp: range [%d,%d) out of bounds for QSM array %q", off, off+len(dst), a.name))
	}
	if a.lay.Kind == core.LayoutBlocked || a.lay.Kind == core.LayoutSingle {
		base := off
		a.lay.Spans(off, len(dst), func(owner, so, cnt int) {
			q.pc.Get(owner, a.reg, a.slot(so), dst[so-base:so-base+cnt])
		})
		return
	}
	q.getScattered(a, core.SeqIdx(off, len(dst)), dst)
}

func (q *qsmProc) GetIndexed(h core.Handle, idx []int, dst []int64) {
	if len(idx) != len(dst) {
		panic("bsp: GetIndexed length mismatch")
	}
	if len(idx) == 0 {
		return
	}
	a := q.qm.arr(h)
	q.checkIdx(a, idx)
	q.getScattered(a, idx, dst)
}

// getScattered issues one BSP GetIndexed per owner, ascending, whose
// values land straight in dst at their input positions.
func (q *qsmProc) getScattered(a *emuArray, idx []int, dst []int64) {
	slots := make([]int, len(idx))
	pos := make([]int, len(idx))
	q.byOwner.Count(a.lay, idx)
	for i, ix := range idx {
		k := q.byOwner.Slot(i)
		slots[k], pos[k] = a.slot(ix), i
	}
	start := 0
	for o, end := range q.byOwner.Ends {
		if end > start {
			q.pc.getIndexed(o, a.reg, slots[start:end:end], dst, pos[start:end:end])
		}
		start = end
	}
}

func (q *qsmProc) ReadLocal(h core.Handle, off int, dst []int64) {
	if len(dst) == 0 {
		return
	}
	a := q.qm.arr(h)
	if !a.lay.OwnsRange(q.ID(), off, len(dst)) {
		panic(fmt.Sprintf("bsp: ReadLocal of %q[%d:%d) not owned by proc %d", a.name, off, off+len(dst), q.ID()))
	}
	if a.lay.Kind == core.LayoutBlocked || a.lay.Kind == core.LayoutSingle {
		q.pc.ReadLocal(a.reg, a.slot(off), dst)
		return
	}
	for k := range dst {
		q.pc.ReadLocal(a.reg, a.slot(off+k), dst[k:k+1])
	}
}

func (q *qsmProc) WriteLocal(h core.Handle, off int, src []int64) {
	if len(src) == 0 {
		return
	}
	a := q.qm.arr(h)
	if !a.lay.OwnsRange(q.ID(), off, len(src)) {
		panic(fmt.Sprintf("bsp: WriteLocal of %q[%d:%d) not owned by proc %d", a.name, off, off+len(src), q.ID()))
	}
	if a.lay.Kind == core.LayoutBlocked || a.lay.Kind == core.LayoutSingle {
		q.pc.WriteLocal(a.reg, a.slot(off), src)
		return
	}
	for k := range src {
		q.pc.WriteLocal(a.reg, a.slot(off+k), src[k:k+1])
	}
}

func (q *qsmProc) Sync() { q.pc.Sync() }
