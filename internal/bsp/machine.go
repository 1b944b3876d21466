// Package bsp implements a BSPlib-style bulk-synchronous message-passing
// machine on the same hardware substrate as the QSM library, plus the
// emulation of QSM shared memory on top of it.
//
// A BSP machine is a collection of processor-memory pairs with no shared
// memory: each processor registers named local regions, and communicates by
// one-sided Put and Get operations addressed to a (processor, region,
// offset) triple. Operations enqueue locally and take effect at the end of
// the superstep (Sync), which also synchronizes all processors — the model
// of Valiant's BSP and of BSPlib. Sync is the superstep exchange qsmlib ends
// its phases with (msg.Exchange); here it moves region words.
//
// QSMMachine (qsmctx.go) realises the Gibbons-Matias-Ramachandran bridging
// result experimentally: QSM shared arrays are distributed over the BSP
// processors' regions (by blocked or hashed maps), and every QSM operation
// translates to BSP puts and gets. The paper's algorithms run unchanged
// through it; the ext-emulation experiment measures the overhead.
package bsp

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/obs"
)

// Options configure a simulated BSP machine.
type Options struct {
	Seed int64
	// Obs attaches an observability recorder to the machine, the messaging
	// layer, and the superstep protocol. Nil costs nothing.
	Obs *obs.Recorder
}

// Region names a registered per-processor memory area.
type Region int

// Machine is a p-processor simulated BSP machine.
type Machine struct {
	*msg.Library
	opts Options

	regions []*region
	byName  map[string]Region
}

// region is a named area with a private copy on every processor.
type region struct {
	name string
	size int
	data [][]int64 // per processor; nil once dropped
}

// New builds a p-processor BSP machine.
func New(p int, opts Options) *Machine {
	m := &Machine{opts: opts, byName: map[string]Region{}}
	m.Library = msg.NewLibrary(p, machine.NetParams{}, msg.Config{
		Words: func(proc, r int) []int64 { return m.reg(Region(r)).data[proc] },
		// Pid 1: qsmlib renders under pid 0, so a recorder shared by both
		// (as in ext1) keeps them apart.
		Names: msg.Names{Subsystem: "bsp", Step: "step", Thread: "proc", Pid: 1},
		Obs:   opts.Obs,
	})
	return m
}

// Run executes prog on every processor and drives the simulation.
func (m *Machine) Run(prog func(*Proc)) error {
	return m.Library.Run(m.opts.Seed, func(x *msg.Exchange) { prog(&Proc{m: m, x: x}) })
}

// RegionData returns processor proc's copy of a region after Run, or nil.
func (m *Machine) RegionData(name string, proc int) []int64 {
	r, ok := m.byName[name]
	if !ok {
		return nil
	}
	return m.regions[r].data[proc]
}

func (m *Machine) register(name string, size int) Region {
	if r, ok := m.byName[name]; ok {
		if m.regions[r].size != size {
			panic(fmt.Sprintf("bsp: region %q re-registered with size %d != %d", name, size, m.regions[r].size))
		}
		return r
	}
	r := Region(len(m.regions))
	reg := &region{name: name, size: size, data: make([][]int64, m.P())}
	for i := range reg.data {
		reg.data[i] = make([]int64, size)
	}
	m.regions = append(m.regions, reg)
	m.byName[name] = r
	return r
}

// drop releases every processor's copy of a region and its name.
func (m *Machine) drop(r Region) {
	reg := m.reg(r)
	reg.data = nil
	delete(m.byName, reg.name)
}

func (m *Machine) reg(r Region) *region {
	if r < 0 || int(r) >= len(m.regions) {
		panic(fmt.Sprintf("bsp: invalid region %d", r))
	}
	reg := m.regions[r]
	if reg.data == nil {
		panic(fmt.Sprintf("bsp: region %q used after it was dropped", reg.name))
	}
	return reg
}
