package par

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
)

func TestBarriersRelease(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(n int) Barrier
	}{
		{"spin", func(n int) Barrier { return NewSpinBarrier(n) }},
		{"chan", func(n int) Barrier { return NewChanBarrier(n) }},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			const n, rounds = 8, 100
			b := tc.mk(n)
			counts := make([]int, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						counts[id]++
						b.Wait(id)
						// After the barrier every participant must have
						// completed round r.
						for j := 0; j < n; j++ {
							if counts[j] < r+1 {
								t.Errorf("round %d: participant %d lagging", r, j)
								return
							}
						}
						b.Wait(id)
					}
				}(i)
			}
			wg.Wait()
		})
	}
}

func TestBarrierZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSpinBarrier(0) did not panic")
		}
	}()
	NewSpinBarrier(0)
}

func TestPutVisibleAfterSync(t *testing.T) {
	m := NewMachine(4, Options{Seed: 1})
	err := m.Run(func(ctx core.Ctx) {
		h := ctx.Register("a", 4)
		ctx.Sync()
		ctx.Put(h, ctx.ID(), []int64{int64(ctx.ID() + 10)})
		ctx.Sync()
		got := make([]int64, 4)
		ctx.Get(h, 0, got)
		ctx.Sync()
		for i, v := range got {
			if v != int64(i+10) {
				panic("wrong value")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGetSeesPrePhaseState(t *testing.T) {
	m := NewMachine(2, Options{Seed: 1})
	err := m.Run(func(ctx core.Ctx) {
		h := ctx.Register("a", 2)
		ctx.Sync()
		if ctx.ID() == 0 {
			ctx.Put(h, 0, []int64{1, 1})
		}
		ctx.Sync()
		// Phase: proc 0 writes word 1; proc 1 reads word 0. Reads must see
		// the values from the start of the phase even though a write to a
		// different word is in flight.
		if ctx.ID() == 0 {
			ctx.Put(h, 1, []int64{99})
		}
		got := make([]int64, 1)
		if ctx.ID() == 1 {
			ctx.Get(h, 1, got)
		}
		ctx.Sync()
		if ctx.ID() == 1 && got[0] != 1 {
			panic("get saw same-phase write")
		}
		// Next phase the write is visible.
		if ctx.ID() == 1 {
			ctx.Get(h, 1, got)
		}
		ctx.Sync()
		if ctx.ID() == 1 && got[0] != 99 {
			panic("write not visible next phase")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIndexedOps(t *testing.T) {
	m := NewMachine(4, Options{Seed: 1})
	const n = 64
	err := m.Run(func(ctx core.Ctx) {
		h := ctx.Register("a", n)
		ctx.Sync()
		// Each proc writes a strided set of words.
		var idx []int
		var vals []int64
		for i := ctx.ID(); i < n; i += ctx.P() {
			idx = append(idx, i)
			vals = append(vals, int64(i*i))
		}
		ctx.PutIndexed(h, idx, vals)
		ctx.Sync()
		// Each proc gathers a different strided set.
		ridx := make([]int, 0, n/4)
		for i := (ctx.ID() + 1) % ctx.P(); i < n; i += ctx.P() {
			ridx = append(ridx, i)
		}
		dst := make([]int64, len(ridx))
		ctx.GetIndexed(h, ridx, dst)
		ctx.Sync()
		for k, i := range ridx {
			if dst[k] != int64(i*i) {
				panic("bad indexed value")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentWritesDeterministic(t *testing.T) {
	// Two procs write the same word in the same phase (kappa = 2). The
	// queuing model allows it; the runtime must resolve deterministically
	// (source order: highest id applies last).
	for trial := 0; trial < 10; trial++ {
		m := NewMachine(4, Options{Seed: int64(trial)})
		var got int64
		err := m.Run(func(ctx core.Ctx) {
			h := ctx.Register("a", 1)
			ctx.Sync()
			ctx.Put(h, 0, []int64{int64(ctx.ID() + 100)})
			ctx.Sync()
			d := make([]int64, 1)
			if ctx.ID() == 0 {
				ctx.Get(h, 0, d)
			}
			ctx.Sync()
			if ctx.ID() == 0 {
				got = d[0]
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != 103 {
			t.Fatalf("trial %d: conflicting write resolved to %d, want 103", trial, got)
		}
	}
}

func TestRegisterSameNameSharedAndSized(t *testing.T) {
	m := NewMachine(3, Options{})
	hs := make([]core.Handle, 3)
	err := m.Run(func(ctx core.Ctx) {
		hs[ctx.ID()] = ctx.Register("shared", 10)
		ctx.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if hs[0] != hs[1] || hs[1] != hs[2] {
		t.Errorf("handles differ: %v", hs)
	}
	if m.Array("shared") == nil || len(m.Array("shared")) != 10 {
		t.Error("Array lookup failed")
	}
	if m.Array("nope") != nil {
		t.Error("unknown array should be nil")
	}
}

func TestRegisterSizeMismatchPanics(t *testing.T) {
	m := NewMachine(1, Options{})
	err := m.Run(func(ctx core.Ctx) {
		ctx.Register("a", 10)
		ctx.Register("a", 20)
	})
	if err == nil {
		t.Fatal("size mismatch should produce an error")
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	m := NewMachine(1, Options{})
	err := m.Run(func(ctx core.Ctx) {
		h := ctx.Register("a", 4)
		ctx.Sync()
		ctx.Put(h, 3, []int64{1, 2})
	})
	if err == nil {
		t.Fatal("out-of-bounds put should produce an error")
	}
}

func TestOwnership(t *testing.T) {
	m := NewMachine(4, Options{})
	hs := make([]core.Handle, 4)
	if err := m.Run(func(ctx core.Ctx) {
		hs[ctx.ID()] = ctx.Register("a", 10) // block = 3: owners 0,0,0,1,1,1,2,2,2,3
		ctx.Sync()
	}); err != nil {
		t.Fatal(err)
	}
	h := hs[0]
	wantOwners := []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3}
	for i, w := range wantOwners {
		if o := m.OwnerOf(h, i); o != w {
			t.Errorf("OwnerOf(%d) = %d, want %d", i, o, w)
		}
	}
	per := m.PerOwner(h, 1, 8) // words 1..8: owners 0,0,1,1,1,2,2,2
	want := []int{2, 3, 3, 0}
	for i := range want {
		if per[i] != want[i] {
			t.Errorf("PerOwner = %v, want %v", per, want)
			break
		}
	}
}

func TestRunProfiledCountsRemoteWords(t *testing.T) {
	m := NewMachine(4, Options{})
	prof, err := core.RunProfiled(m, func(ctx core.Ctx) {
		h := ctx.Register("a", 4) // one word per proc
		ctx.Sync()
		ctx.Put(h, ctx.ID(), []int64{1}) // local: no communication
		ctx.Sync()
		d := make([]int64, 4)
		ctx.Get(h, 0, d) // reads 3 remote words + 1 local
		ctx.Sync()
		ctx.Compute(cpu.BlockSum(100))
	}, core.Flags{})
	if err != nil {
		t.Fatal(err)
	}
	if prof.NumPhases() < 3 {
		t.Fatalf("phases = %d, want >= 3", prof.NumPhases())
	}
	// Phase 1: puts are all local.
	if rw := prof.Phases[1].MaxRW(); rw != 0 {
		t.Errorf("local puts counted as remote: m_rw = %d", rw)
	}
	// Phase 2: each proc reads 3 remote words.
	if rw := prof.Phases[2].MaxRW(); rw != 3 {
		t.Errorf("phase 2 m_rw = %d, want 3", rw)
	}
	// Compute charged in final phase.
	last := prof.Phases[prof.NumPhases()-1]
	if last.MaxOps() == 0 {
		t.Error("compute ops not recorded")
	}
}

func TestRunProfiledDetectsRuleViolation(t *testing.T) {
	m := NewMachine(2, Options{})
	_, err := core.RunProfiled(m, func(ctx core.Ctx) {
		h := ctx.Register("a", 2)
		ctx.Sync()
		if ctx.ID() == 0 {
			ctx.Put(h, 0, []int64{1})
		} else {
			d := make([]int64, 1)
			ctx.Get(h, 0, d) // same word read and written in one phase
		}
		ctx.Sync()
	}, core.Flags{CheckRules: true})
	if err == nil {
		t.Fatal("read+write of same word in one phase not detected")
	}
}

func TestRunProfiledKappa(t *testing.T) {
	m := NewMachine(4, Options{})
	prof, err := core.RunProfiled(m, func(ctx core.Ctx) {
		h := ctx.Register("a", 8)
		ctx.Sync()
		d := make([]int64, 1)
		ctx.Get(h, 0, d) // all 4 procs read word 0: kappa = 4
		ctx.Sync()
	}, core.Flags{TrackKappa: true})
	if err != nil {
		t.Fatal(err)
	}
	if k := prof.Phases[1].Kappa; k != 4 {
		t.Errorf("kappa = %d, want 4", k)
	}
}

func TestChanBarrierMachine(t *testing.T) {
	m := NewMachine(4, Options{Barrier: NewChanBarrier(4)})
	err := m.Run(func(ctx core.Ctx) {
		h := ctx.Register("a", 4)
		ctx.Sync()
		ctx.Put(h, ctx.ID(), []int64{int64(ctx.ID())})
		ctx.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	data := m.Array("a")
	for i, v := range data {
		if v != int64(i) {
			t.Fatalf("data = %v", data)
		}
	}
}

func TestRandDeterministicPerProc(t *testing.T) {
	draw := func() []int64 {
		m := NewMachine(4, Options{Seed: 99})
		out := make([]int64, 4)
		if err := m.Run(func(ctx core.Ctx) {
			out[ctx.ID()] = ctx.Rand().Int63()
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("per-proc rand not reproducible")
		}
	}
	if a[0] == a[1] {
		t.Error("different procs should get different streams")
	}
}

func BenchmarkSpinBarrier(b *testing.B) {
	benchBarrier(b, NewSpinBarrier(4))
}

func BenchmarkChanBarrier(b *testing.B) {
	benchBarrier(b, NewChanBarrier(4))
}

func benchBarrier(b *testing.B, bar Barrier) {
	const n = 4
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for r := 0; r < b.N; r++ {
				bar.Wait(id)
			}
		}(i)
	}
	wg.Wait()
}

func BenchmarkNativeSyncPhase(b *testing.B) {
	m := NewMachine(4, Options{})
	if err := m.Run(func(ctx core.Ctx) {
		h := ctx.Register("a", 1024)
		ctx.Sync()
		buf := make([]int64, 256)
		for i := 0; i < b.N; i++ {
			ctx.Put(h, ctx.ID()*256, buf)
			ctx.Sync()
		}
	}); err != nil {
		b.Fatal(err)
	}
}

func TestFreeAndReuseNative(t *testing.T) {
	m := NewMachine(3, Options{Seed: 50})
	if err := m.Run(func(ctx core.Ctx) {
		h := ctx.Register("tmp", 6)
		ctx.Sync()
		ctx.Put(h, ctx.ID()*2, []int64{1, 2})
		ctx.Sync()
		ctx.Free(h)
		ctx.Sync()
		h2 := ctx.Register("tmp", 3)
		ctx.Sync()
		if ctx.ID() == 0 {
			ctx.Put(h2, 0, []int64{9})
		}
		ctx.Sync()
	}); err != nil {
		t.Fatal(err)
	}
	if got := len(m.Array("tmp")); got != 3 {
		t.Fatalf("reused array length = %d, want 3", got)
	}
}

func TestUseAfterFreePanicsNative(t *testing.T) {
	m := NewMachine(2, Options{Seed: 51})
	err := m.Run(func(ctx core.Ctx) {
		h := ctx.Register("tmp", 4)
		ctx.Sync()
		ctx.Free(h)
		ctx.Sync()
		ctx.Put(h, 0, []int64{1})
	})
	if err == nil {
		t.Fatal("use after free should error")
	}
}

func TestWriteLocalForeignPanicsNative(t *testing.T) {
	m := NewMachine(4, Options{Seed: 52})
	err := m.Run(func(ctx core.Ctx) {
		h := ctx.Register("a", 16)
		ctx.Sync()
		// Every processor attempts a foreign write (its successor's block),
		// so all of them panic and nobody is left waiting at a barrier.
		ctx.WriteLocal(h, ((ctx.ID()+1)%4)*4, []int64{1})
	})
	if err == nil {
		t.Fatal("foreign WriteLocal should error")
	}
}

func TestRegisterSpecLayouts(t *testing.T) {
	m := NewMachine(4, Options{Seed: 53})
	if err := m.Run(func(ctx core.Ctx) {
		hashed := ctx.RegisterSpec("h", 64, core.LayoutSpec{Kind: core.LayoutHashed})
		single := ctx.RegisterSpec("s", 8, core.LayoutSpec{Kind: core.LayoutSingle, Owner: 2})
		ctx.Sync()
		if ctx.ID() == 0 {
			idx := make([]int, 64)
			vals := make([]int64, 64)
			for i := range idx {
				idx[i] = i
				vals[i] = int64(i)
			}
			ctx.PutIndexed(hashed, idx, vals)
			ctx.Put(single, 0, []int64{1, 2, 3, 4, 5, 6, 7, 8})
		}
		ctx.Sync()
		got := make([]int64, 64)
		ctx.Get(hashed, 0, got)
		s := make([]int64, 8)
		if ctx.ID() == 2 {
			ctx.ReadLocal(single, 0, s) // single-owner array is local to proc 2
		}
		ctx.Sync()
		for i, v := range got {
			if v != int64(i) {
				panic("hashed layout corrupted data")
			}
		}
		if ctx.ID() == 2 && s[7] != 8 {
			panic("single layout wrong")
		}
	}); err != nil {
		t.Fatal(err)
	}
}
