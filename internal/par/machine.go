package par

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/stats"
)

// Options configure a native machine.
type Options struct {
	// Seed drives every processor's private random source.
	Seed int64
	// Barrier overrides the synchronization primitive; nil uses a
	// SpinBarrier.
	Barrier Barrier
}

// Machine is a native QSM machine of p goroutine processors over a shared
// address space. Shared arrays default to a blocked layout (word i of an
// n-word array is owned by processor min(i/ceil(n/p), p-1)); RegisterSpec
// selects others. It implements core.Backend so runs can be cost-profiled
// with core.RunProfiled.
type Machine struct {
	p       int
	opts    Options
	barrier Barrier

	mu     sync.Mutex
	arrays []*array
	byName map[string]core.Handle

	// mail[src*p+dst] holds put segments from src to apply on dst's side;
	// src writes only its own row, so no locking is needed beyond the
	// barrier's ordering.
	mail []([]putSeg)
}

type array struct {
	name  string
	data  []int64
	lay   core.Layout
	frees int // processors that have called Free; destroyed at P
	freed bool
}

type putSeg struct {
	h    core.Handle
	off  int   // start offset for contiguous; unused for indexed
	idx  []int // nil for contiguous
	vals []int64
}

// NewMachine creates a native machine with p processors.
func NewMachine(p int, opts Options) *Machine {
	if p <= 0 {
		panic("par: p must be positive")
	}
	b := opts.Barrier
	if b == nil {
		b = NewSpinBarrier(p)
	}
	return &Machine{
		p:       p,
		opts:    opts,
		barrier: b,
		byName:  map[string]core.Handle{},
		mail:    make([][]putSeg, p*p),
	}
}

// P returns the processor count.
func (m *Machine) P() int { return m.p }

// Run executes prog on all processors and blocks until every processor
// returns. It returns an error if any processor panicked.
func (m *Machine) Run(prog core.Program) error {
	errs := make([]error, m.p)
	var wg sync.WaitGroup
	for i := 0; i < m.p; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[id] = fmt.Errorf("par: processor %d panicked: %v", id, r)
				}
			}()
			prog(&proc{m: m, id: id, rng: stats.NewRand(m.opts.Seed, int64(id))})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Array returns the backing data of a registered array, for inspection
// after Run returns. It returns nil if the name was never registered.
func (m *Machine) Array(name string) []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.byName[name]
	if !ok {
		return nil
	}
	return m.arrays[h].data
}

// lookup is arr under the machine lock; the deferred unlock releases the
// mutex even when arr panics (a contract violation by one processor must
// not deadlock the others).
func (m *Machine) lookup(h core.Handle) *array {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.arr(h)
}

func (m *Machine) arr(h core.Handle) *array {
	if h < 0 || int(h) >= len(m.arrays) {
		panic(fmt.Sprintf("par: invalid handle %d", h))
	}
	a := m.arrays[h]
	if a.freed {
		panic(fmt.Sprintf("par: array %q used after Free", a.name))
	}
	return a
}

func (m *Machine) free(h core.Handle) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h < 0 || int(h) >= len(m.arrays) {
		panic(fmt.Sprintf("par: invalid handle %d", h))
	}
	a := m.arrays[h]
	if a.freed {
		return
	}
	a.frees++
	if a.frees < m.p {
		// Collective: peers may still access the array this phase; it is
		// destroyed once every processor has freed it.
		return
	}
	a.freed = true
	a.data = nil
	delete(m.byName, a.name)
}

// OwnerOf implements core.Ownership.
func (m *Machine) OwnerOf(h core.Handle, i int) int {
	m.mu.Lock()
	a := m.arr(h)
	m.mu.Unlock()
	return a.lay.OwnerOf(i)
}

// PerOwner implements core.Ownership.
func (m *Machine) PerOwner(h core.Handle, off, n int) []int {
	m.mu.Lock()
	a := m.arr(h)
	m.mu.Unlock()
	return a.lay.PerOwner(off, n)
}

func (m *Machine) register(name string, n int, spec core.LayoutSpec) core.Handle {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h, ok := m.byName[name]; ok {
		if len(m.arrays[h].data) != n {
			panic(fmt.Sprintf("par: array %q re-registered with size %d != %d", name, n, len(m.arrays[h].data)))
		}
		return h
	}
	h := core.Handle(len(m.arrays))
	hseed := stats.Mix64(uint64(m.opts.Seed), uint64(h)+0xabcd)
	m.arrays = append(m.arrays, &array{
		name: name,
		data: make([]int64, n),
		lay:  core.ResolveLayout(spec, n, m.p, core.LayoutBlocked, hseed),
	})
	m.byName[name] = h
	return h
}
