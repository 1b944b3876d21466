package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cpu"
)

// Ownership lets the cost recorder classify shared-memory accesses as local
// or remote and attribute traffic to owners. Backends implement it for their
// data layouts.
type Ownership interface {
	// OwnerOf returns the processor owning word i of handle h.
	OwnerOf(h Handle, i int) int
	// PerOwner returns, for the range [off, off+n) of h, how many words
	// each processor owns. The result has length P.
	PerOwner(h Handle, off, n int) []int
}

// Backend is a machine whose runs can be profiled: it attributes words to
// owners and runs a Program on every processor.
type Backend interface {
	Ownership
	P() int
	Run(Program) error
}

// RunProfiled runs prog on b with every processor's activity recorded, and
// returns the phase profile with the run's first error or, failing that,
// the first bulk-synchrony violation flags asked to check. Local work is
// costed in cycles by the Table 2 analytic node model.
func RunProfiled(b Backend, prog Program, flags Flags) (*Profile, error) {
	col := newCollector(b.P(), b, flags)
	err := b.Run(func(ctx Ctx) { prog(&recorder{Ctx: ctx, c: col}) })
	profile, perr := col.finish()
	if err == nil {
		err = perr
	}
	return profile, err
}

// Flags selects which (potentially expensive) checks a profiled run performs.
type Flags struct {
	// CheckRules verifies the QSM bulk-synchrony contract: no shared word
	// is both read and written within a single phase.
	CheckRules bool
	// TrackKappa computes the exact per-phase contention kappa (the maximum
	// number of accesses to any single word).
	TrackKappa bool
}

// collector accumulates phase profiles from the recorders of all
// processors. It is safe for concurrent use by the native backend.
type collector struct {
	mu    sync.Mutex
	p     int
	own   Ownership
	cost  cpu.Model
	flags Flags

	phases  []*PhaseProfile
	traffic [][][]uint64 // per phase: p x p words sent i -> j
	spans   []*phaseSpans
	errs    []error
}

type span struct{ lo, hi int } // [lo, hi)

type phaseSpans struct {
	reads  map[Handle][]span
	writes map[Handle][]span
}

// newCollector creates a collector for p processors whose accesses own
// attributes to owners.
func newCollector(p int, own Ownership, flags Flags) *collector {
	return &collector{p: p, own: own, cost: cpu.NewAnalytic(cpu.Table2()), flags: flags}
}

func (c *collector) phase(k int) (*PhaseProfile, *phaseSpans, [][]uint64) {
	for len(c.phases) <= k {
		c.phases = append(c.phases, &PhaseProfile{
			Ops:       make([]uint64, c.p),
			OpCycles:  make([]uint64, c.p),
			RW:        make([]uint64, c.p),
			SentWords: make([]uint64, c.p),
			RecvWords: make([]uint64, c.p),
			Msgs:      make([]uint64, c.p),
		})
		t := make([][]uint64, c.p)
		for i := range t {
			t[i] = make([]uint64, c.p)
		}
		c.traffic = append(c.traffic, t)
		c.spans = append(c.spans, &phaseSpans{
			reads:  map[Handle][]span{},
			writes: map[Handle][]span{},
		})
	}
	return c.phases[k], c.spans[k], c.traffic[k]
}

func (c *collector) recordCompute(proc, phase int, b cpu.OpBlock) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ph, _, _ := c.phase(phase)
	ph.Ops[proc] += b.Ops()
	ph.OpCycles[proc] += c.cost.Cycles(b)
}

func (c *collector) recordRange(proc, phase int, h Handle, off, n int, write bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ph, sp, tr := c.phase(phase)
	if n == 0 {
		return // an empty access touches no word; the backends ignore it too
	}
	for owner, w := range c.own.PerOwner(h, off, n) {
		if w == 0 || owner == proc {
			continue
		}
		ph.RW[proc] += uint64(w)
		if write {
			tr[proc][owner] += uint64(w)
		} else {
			tr[owner][proc] += uint64(w) // data flows owner -> reader
		}
	}
	if c.flags.CheckRules || c.flags.TrackKappa {
		m := sp.reads
		if write {
			m = sp.writes
		}
		m[h] = append(m[h], span{off, off + n})
	}
}

func (c *collector) recordIndexed(proc, phase int, h Handle, idx []int, write bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ph, sp, tr := c.phase(phase)
	for _, i := range idx {
		owner := c.own.OwnerOf(h, i)
		if owner == proc {
			continue
		}
		ph.RW[proc]++
		if write {
			tr[proc][owner]++
		} else {
			tr[owner][proc]++
		}
	}
	if c.flags.CheckRules || c.flags.TrackKappa {
		m := sp.reads
		if write {
			m = sp.writes
		}
		spans := m[h]
		for _, i := range idx {
			spans = append(spans, span{i, i + 1})
		}
		m[h] = spans
	}
}

// finish resolves per-phase aggregates (message counts, h-relations, kappa)
// and returns the run profile. It reports the first bulk-synchrony rule
// violation found, if rule checking was enabled.
func (c *collector) finish() (*Profile, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, ph := range c.phases {
		tr := c.traffic[k]
		for i := 0; i < c.p; i++ {
			for j := 0; j < c.p; j++ {
				if i == j {
					continue
				}
				w := tr[i][j]
				if w > 0 {
					ph.SentWords[i] += w
					ph.RecvWords[j] += w
					ph.Msgs[i]++
				}
			}
		}
		sp := c.spans[k]
		if c.flags.CheckRules {
			if err := checkRules(sp); err != nil {
				c.errs = append(c.errs, fmt.Errorf("phase %d: %w", k, err))
			}
		}
		if c.flags.TrackKappa {
			ph.Kappa = kappaOf(sp)
		}
	}
	pr := &Profile{P: c.p, Phases: c.phases}
	if len(c.errs) > 0 {
		return pr, c.errs[0]
	}
	return pr, nil
}

// checkRules detects a shared word both read and written in one phase.
func checkRules(sp *phaseSpans) error {
	for h, writes := range sp.writes {
		reads := sp.reads[h]
		if len(reads) == 0 {
			continue
		}
		ws := append([]span(nil), writes...)
		rs := append([]span(nil), reads...)
		sort.Slice(ws, func(i, j int) bool { return ws[i].lo < ws[j].lo })
		sort.Slice(rs, func(i, j int) bool { return rs[i].lo < rs[j].lo })
		i := 0
		for _, r := range rs {
			for i < len(ws) && ws[i].hi <= r.lo {
				i++
			}
			if i < len(ws) && ws[i].lo < r.hi {
				return fmt.Errorf("QSM rule violation: handle %d word range [%d,%d) both read and written", h, max(r.lo, ws[i].lo), min(r.hi, ws[i].hi))
			}
		}
	}
	return nil
}

// kappaOf computes the maximum number of accesses covering any single word.
func kappaOf(sp *phaseSpans) uint64 {
	type edge struct {
		at    int
		delta int
	}
	var best int
	handles := map[Handle][]edge{}
	add := func(m map[Handle][]span) {
		for h, spans := range m {
			for _, s := range spans {
				handles[h] = append(handles[h], edge{s.lo, 1}, edge{s.hi, -1})
			}
		}
	}
	add(sp.reads)
	add(sp.writes)
	for _, edges := range handles {
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].at != edges[j].at {
				return edges[i].at < edges[j].at
			}
			return edges[i].delta < edges[j].delta // close before open
		})
		depth := 0
		for _, e := range edges {
			depth += e.delta
			if depth > best {
				best = depth
			}
		}
	}
	return uint64(best)
}

// recorder wraps a backend Ctx and reports every shared-memory access,
// every Compute and every Sync to a collector. The other methods, ReadLocal
// and WriteLocal among them (private-memory accesses are local computation,
// not communication), pass straight to the embedded Ctx; a new Ctx method
// that moves shared words must be recorded here.
type recorder struct {
	Ctx
	c     *collector
	phase int
}

// Put implements Ctx.
func (r *recorder) Put(h Handle, off int, src []int64) {
	r.c.recordRange(r.ID(), r.phase, h, off, len(src), true)
	r.Ctx.Put(h, off, src)
}

// Get implements Ctx.
func (r *recorder) Get(h Handle, off int, dst []int64) {
	r.c.recordRange(r.ID(), r.phase, h, off, len(dst), false)
	r.Ctx.Get(h, off, dst)
}

// PutIndexed implements Ctx.
func (r *recorder) PutIndexed(h Handle, idx []int, src []int64) {
	r.c.recordIndexed(r.ID(), r.phase, h, idx, true)
	r.Ctx.PutIndexed(h, idx, src)
}

// GetIndexed implements Ctx.
func (r *recorder) GetIndexed(h Handle, idx []int, dst []int64) {
	r.c.recordIndexed(r.ID(), r.phase, h, idx, false)
	r.Ctx.GetIndexed(h, idx, dst)
}

// Sync implements Ctx.
func (r *recorder) Sync() {
	r.Ctx.Sync()
	r.phase++
}

// Compute implements Ctx.
func (r *recorder) Compute(b cpu.OpBlock) {
	r.c.recordCompute(r.ID(), r.phase, b)
	r.Ctx.Compute(b)
}
