// Package qsmlib is the simulated-machine backend of the QSM model: the
// bulk-synchronous shared-memory library of Section 3.1.2, reimplemented on
// the machine/msg substrate.
//
// Access to remote memory happens through explicit Get and Put calls that
// merely enqueue requests on the local node; Sync ends the phase with the
// superstep exchange of msg.Exchange (communications plan, staggered data
// exchange, gets served from pre-phase state, puts applied, barrier).
package qsmlib

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Options configure the simulated QSM machine.
type Options struct {
	Net machine.NetParams // zero value uses machine.DefaultNet
	SW  msg.SWParams      // zero value uses msg.DefaultSW
	// Layout is the default layout for arrays registered without an
	// explicit spec; LayoutDefault means blocked.
	Layout core.LayoutKind
	Seed   int64
	// TreeBarrier selects the dissemination barrier instead of the central
	// one at the end of every Sync.
	TreeBarrier bool
	// NaiveExchange disables the staggered exchange schedule: every node
	// sends to peers in index order 0,1,2,..., concentrating early traffic
	// on low-numbered receive NICs. Exists for the ablation benchmarks.
	NaiveExchange bool
	// Model builds each node's processor model; nil uses Table 2 analytic.
	Model func(id int) cpu.Model
	// Obs attaches an observability recorder to the machine, the messaging
	// layer, and the sync protocol (superstep spans with a compute/sync
	// split). Nil costs nothing.
	Obs *obs.Recorder
}

// Machine is a simulated p-node QSM machine.
type Machine struct {
	*msg.Library
	opts Options

	arrays []*array
	byName map[string]core.Handle
	ctxs   []*qctx
}

type array struct {
	name  string
	data  []int64
	lay   core.Layout
	frees int // processors that have called Free; destroyed at P
	freed bool
}

// New builds a p-node simulated QSM machine.
func New(p int, opts Options) *Machine {
	m := &Machine{opts: opts, byName: map[string]core.Handle{}}
	m.Library = msg.NewLibrary(p, opts.Net, opts.Model, msg.Config{
		SW:    opts.SW,
		Naive: opts.NaiveExchange,
		Tree:  opts.TreeBarrier,
		Words: func(_, h int) []int64 { return m.arr(core.Handle(h)).data },
		Names: msg.Names{Subsystem: "qsmlib", Step: "phase", Thread: "node", Pid: 0},
		Obs:   opts.Obs,
	})
	return m
}

// G returns the effective QSM gap parameter implied by the machine's
// hardware network: cycles per 8-byte word at the hardware bandwidth.
func (m *Machine) G() float64 { return m.MP.Net.Gap * 8 }

// Run executes prog as a QSM program on all nodes and returns when the
// simulation completes.
func (m *Machine) Run(prog core.Program) error {
	m.ctxs = make([]*qctx, m.P())
	return m.Library.Run(m.opts.Seed, func(x *msg.Exchange) {
		c := &qctx{m: m, x: x}
		m.ctxs[x.ID()] = c
		prog(c)
	})
}

// RunProfiled executes prog with cost recording.
func (m *Machine) RunProfiled(prog core.Program, flags core.Flags) (*core.Profile, error) {
	col := core.NewCollector(m.P(), m, cpu.NewAnalytic(cpu.Table2()), flags)
	err := m.Run(func(ctx core.Ctx) { prog(core.NewRecorder(ctx, col)) })
	profile, perr := col.Finish()
	if err == nil {
		err = perr
	}
	return profile, err
}

// Timeline returns node id's per-phase sync spans from the last Run: when
// each Sync began and ended in simulated time and how much it moved.
// Useful for visualising where a program's time goes.
func (m *Machine) Timeline(id int) []msg.PhaseSpan {
	if id < 0 || id >= len(m.ctxs) || m.ctxs[id] == nil {
		return nil
	}
	return m.ctxs[id].timeline
}

// Array returns the backing data of a registered array for inspection after
// Run, or nil if never registered.
func (m *Machine) Array(name string) []int64 {
	h, ok := m.byName[name]
	if !ok {
		return nil
	}
	return m.arrays[h].data
}

func (m *Machine) free(h core.Handle) {
	if h < 0 || int(h) >= len(m.arrays) {
		panic(fmt.Sprintf("qsmlib: invalid handle %d", h))
	}
	a := m.arrays[h]
	if a.freed {
		return
	}
	a.frees++
	if a.frees < m.P() {
		// Collective: peers may still access the array this phase; it is
		// destroyed once every processor has freed it.
		return
	}
	a.freed = true
	a.data = nil
	delete(m.byName, a.name)
}

func (m *Machine) register(name string, n int, spec core.LayoutSpec) core.Handle {
	if h, ok := m.byName[name]; ok {
		if len(m.arrays[h].data) != n {
			panic(fmt.Sprintf("qsmlib: array %q re-registered with size %d != %d", name, n, len(m.arrays[h].data)))
		}
		return h
	}
	h := core.Handle(len(m.arrays))
	hseed := stats.Mix64(uint64(m.opts.Seed), uint64(h)+0xabcd)
	m.arrays = append(m.arrays, &array{
		name: name,
		data: make([]int64, n),
		lay:  core.ResolveLayout(spec, n, m.P(), m.opts.Layout, hseed),
	})
	m.byName[name] = h
	return h
}

func (m *Machine) arr(h core.Handle) *array {
	if h < 0 || int(h) >= len(m.arrays) {
		panic(fmt.Sprintf("qsmlib: invalid handle %d", h))
	}
	a := m.arrays[h]
	if a.freed {
		panic(fmt.Sprintf("qsmlib: array %q used after Free", a.name))
	}
	return a
}

// OwnerOf implements core.Ownership.
func (m *Machine) OwnerOf(h core.Handle, i int) int { return m.arr(h).lay.OwnerOf(i) }

// PerOwner implements core.Ownership.
func (m *Machine) PerOwner(h core.Handle, off, n int) []int {
	return m.arr(h).lay.PerOwner(off, n)
}
