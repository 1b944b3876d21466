package core

import (
	"math/rand"
	"testing"

	"repro/internal/cpu"
)

// fakeCtx is a minimal single-machine backend for exercising the recorder:
// shared arrays are flat slices, puts apply at Sync, gets read pre-phase
// state. One fakeMachine hosts p fakeCtxs driven sequentially.
type fakeMachine struct {
	p      int
	arrays [][]int64
	byName map[string]Handle
	lays   []Layout
}

func newFakeMachine(p int) *fakeMachine {
	return &fakeMachine{p: p, byName: map[string]Handle{}}
}

func (m *fakeMachine) OwnerOf(h Handle, i int) int { return m.lays[h].OwnerOf(i) }
func (m *fakeMachine) PerOwner(h Handle, off, n int) []int {
	return m.lays[h].PerOwner(off, n)
}

type fakeCtx struct {
	m   *fakeMachine
	id  int
	rng *rand.Rand
}

func (c *fakeCtx) ID() int          { return c.id }
func (c *fakeCtx) P() int           { return c.m.p }
func (c *fakeCtx) Rand() *rand.Rand { return c.rng }

func (c *fakeCtx) Register(name string, n int) Handle {
	return c.RegisterSpec(name, n, LayoutSpec{})
}

func (c *fakeCtx) RegisterSpec(name string, n int, spec LayoutSpec) Handle {
	if h, ok := c.m.byName[name]; ok {
		return h
	}
	h := Handle(len(c.m.arrays))
	c.m.arrays = append(c.m.arrays, make([]int64, n))
	c.m.lays = append(c.m.lays, ResolveLayout(spec, n, c.m.p, LayoutBlocked, 7))
	c.m.byName[name] = h
	return h
}

func (c *fakeCtx) Free(Handle) {}

func (c *fakeCtx) Put(h Handle, off int, src []int64) {
	copy(c.m.arrays[h][off:off+len(src)], src) // applied eagerly: fine for these tests
}
func (c *fakeCtx) Get(h Handle, off int, dst []int64) {
	copy(dst, c.m.arrays[h][off:off+len(dst)])
}
func (c *fakeCtx) PutIndexed(h Handle, idx []int, src []int64) {
	for k, i := range idx {
		c.m.arrays[h][i] = src[k]
	}
}
func (c *fakeCtx) GetIndexed(h Handle, idx []int, dst []int64) {
	for k, i := range idx {
		dst[k] = c.m.arrays[h][i]
	}
}
func (c *fakeCtx) ReadLocal(h Handle, off int, dst []int64)  { c.Get(h, off, dst) }
func (c *fakeCtx) WriteLocal(h Handle, off int, src []int64) { c.Put(h, off, src) }
func (c *fakeCtx) Sync()                                     {}
func (c *fakeCtx) Compute(cpu.OpBlock)                       {}

var _ Ctx = (*fakeCtx)(nil)

// driven runs fn for each of p recorders over one fake machine and returns
// the collector's profile.
func driven(t *testing.T, p int, flags Flags, fn func(ctx Ctx)) (*Profile, error) {
	t.Helper()
	m := newFakeMachine(p)
	col := newCollector(p, m, flags)
	for id := 0; id < p; id++ {
		fn(&recorder{Ctx: &fakeCtx{m: m, id: id, rng: rand.New(rand.NewSource(int64(id)))}, c: col})
	}
	return col.finish()
}

func TestRecorderCountsRemoteAndLocal(t *testing.T) {
	prof, err := driven(t, 4, Flags{}, func(ctx Ctx) {
		h := ctx.Register("a", 8) // block 2: procs own [2i, 2i+2)
		ctx.Sync()
		ctx.Put(h, ctx.ID()*2, []int64{1, 2}) // local
		ctx.Sync()
		d := make([]int64, 8)
		ctx.Get(h, 0, d) // 6 remote words
		ctx.Sync()
		ctx.Compute(cpu.BlockSum(100))
	})
	if err != nil {
		t.Fatal(err)
	}
	if rw := prof.Phases[1].MaxRW(); rw != 0 {
		t.Errorf("local put counted remote: %d", rw)
	}
	if rw := prof.Phases[2].MaxRW(); rw != 6 {
		t.Errorf("phase 2 m_rw = %d, want 6", rw)
	}
	last := prof.Phases[len(prof.Phases)-1]
	if last.MaxOps() == 0 || last.MaxOpCycles() == 0 {
		t.Error("compute not recorded")
	}
}

func TestRecorderIndexedTrafficAndMsgs(t *testing.T) {
	prof, err := driven(t, 4, Flags{}, func(ctx Ctx) {
		h := ctx.Register("a", 8)
		ctx.Sync()
		if ctx.ID() == 0 {
			// One word to each other owner: 3 remote words, 3 messages.
			ctx.PutIndexed(h, []int{2, 4, 6}, []int64{1, 2, 3})
		}
		ctx.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	ph := prof.Phases[1]
	if ph.RW[0] != 3 {
		t.Errorf("proc 0 m_rw = %d, want 3", ph.RW[0])
	}
	if ph.Msgs[0] != 3 {
		t.Errorf("proc 0 msgs = %d, want 3", ph.Msgs[0])
	}
	if ph.SentWords[0] != 3 || ph.RecvWords[1] != 1 {
		t.Errorf("h-relation wrong: sent=%v recv=%v", ph.SentWords, ph.RecvWords)
	}
}

func TestRecorderGetTrafficFlowsOwnerToReader(t *testing.T) {
	prof, err := driven(t, 2, Flags{}, func(ctx Ctx) {
		h := ctx.Register("a", 4)
		ctx.Sync()
		if ctx.ID() == 1 {
			d := make([]int64, 2)
			ctx.Get(h, 0, d) // proc 0's words
		}
		ctx.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	ph := prof.Phases[1]
	if ph.SentWords[0] != 2 || ph.RecvWords[1] != 2 {
		t.Errorf("get traffic wrong: sent=%v recv=%v", ph.SentWords, ph.RecvWords)
	}
}

func TestCollectorRuleViolationRange(t *testing.T) {
	_, err := driven(t, 2, Flags{CheckRules: true}, func(ctx Ctx) {
		h := ctx.Register("a", 4)
		ctx.Sync()
		if ctx.ID() == 0 {
			ctx.Put(h, 1, []int64{9})
		} else {
			ctx.Get(h, 0, make([]int64, 3)) // overlaps the write at word 1
		}
		ctx.Sync()
	})
	if err == nil {
		t.Fatal("overlapping read/write not detected")
	}
}

func TestCollectorRuleCleanPasses(t *testing.T) {
	_, err := driven(t, 2, Flags{CheckRules: true}, func(ctx Ctx) {
		h := ctx.Register("a", 4)
		ctx.Sync()
		if ctx.ID() == 0 {
			ctx.Put(h, 0, []int64{9, 9})
		} else {
			ctx.Get(h, 2, make([]int64, 2)) // disjoint
		}
		ctx.Sync()
	})
	if err != nil {
		t.Fatalf("disjoint read/write flagged: %v", err)
	}
}

// An empty Put touches no word, so it cannot conflict with a read that
// covers its offset.
func TestCollectorEmptyPutIsNoViolation(t *testing.T) {
	_, err := driven(t, 2, Flags{CheckRules: true}, func(ctx Ctx) {
		h := ctx.Register("a", 8)
		ctx.Sync()
		if ctx.ID() == 0 {
			ctx.Put(h, 5, nil)
		} else {
			ctx.Get(h, 3, make([]int64, 3)) // [3,6) covers offset 5
		}
		ctx.Sync()
	})
	if err != nil {
		t.Fatalf("empty put flagged: %v", err)
	}
}

func TestCollectorKappaMixedSpansAndPoints(t *testing.T) {
	prof, err := driven(t, 3, Flags{TrackKappa: true}, func(ctx Ctx) {
		h := ctx.Register("a", 10)
		ctx.Sync()
		ctx.Get(h, 2, make([]int64, 4))               // range [2,6) from each of 3 procs
		ctx.GetIndexed(h, []int{3}, make([]int64, 1)) // extra point at 3
		ctx.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Word 3: 3 range reads + 3 point reads = 6.
	if k := prof.Phases[1].Kappa; k != 6 {
		t.Errorf("kappa = %d, want 6", k)
	}
}

func TestRecorderLocalOpsPassThrough(t *testing.T) {
	prof, err := driven(t, 2, Flags{}, func(ctx Ctx) {
		h := ctx.RegisterSpec("a", 4, LayoutSpec{Kind: LayoutBlocked})
		ctx.Sync()
		ctx.WriteLocal(h, ctx.ID()*2, []int64{5})
		d := make([]int64, 1)
		ctx.ReadLocal(h, ctx.ID()*2, d)
		if d[0] != 5 {
			t.Error("local round trip failed")
		}
		ctx.Free(h)
		if ctx.Rand() == nil || ctx.P() != 2 {
			t.Error("passthrough accessors wrong")
		}
		ctx.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range prof.Phases {
		if ph.MaxRW() != 0 {
			t.Error("local accesses must not count as remote")
		}
	}
}
