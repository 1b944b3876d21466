package collective

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/qsmlib"
)

// run executes prog on both backends and fails on any error.
func run(t *testing.T, p int, prog core.Program) {
	t.Helper()
	sm := qsmlib.New(p, qsmlib.Options{Seed: 3})
	if err := sm.Run(prog); err != nil {
		t.Fatalf("sim: %v", err)
	}
	nm := par.NewMachine(p, par.Options{Seed: 3})
	if err := nm.Run(prog); err != nil {
		t.Fatalf("native: %v", err)
	}
}

func TestBroadcast(t *testing.T) {
	const p = 6
	run(t, p, func(ctx core.Ctx) {
		g := NewGroup(ctx, "t")
		got := g.Broadcast(2, []int64{7, 8, 9})
		for i, w := range []int64{7, 8, 9} {
			if got[i] != w {
				panic(fmt.Sprintf("proc %d: broadcast got %v", ctx.ID(), got))
			}
		}
	})
}

func TestBroadcastFromEveryRoot(t *testing.T) {
	const p = 4
	run(t, p, func(ctx core.Ctx) {
		g := NewGroup(ctx, "t")
		for root := 0; root < p; root++ {
			v := []int64{int64(100 + root)}
			got := g.Broadcast(root, v)
			if got[0] != int64(100+root) {
				panic("wrong broadcast value")
			}
		}
	})
}

func TestAllGather(t *testing.T) {
	const p = 5
	run(t, p, func(ctx core.Ctx) {
		g := NewGroup(ctx, "t")
		mine := []int64{int64(ctx.ID() * 2), int64(ctx.ID()*2 + 1)}
		all := g.AllGather(mine)
		if len(all) != p*2 {
			panic("wrong length")
		}
		for i, v := range all {
			if v != int64(i) {
				panic(fmt.Sprintf("allgather[%d] = %d", i, v))
			}
		}
	})
}

func TestAllReduce(t *testing.T) {
	const p = 8
	run(t, p, func(ctx core.Ctx) {
		g := NewGroup(ctx, "t")
		id := int64(ctx.ID())
		sum := g.AllReduce([]int64{id, -id}, Sum)
		if sum[0] != 28 || sum[1] != -28 {
			panic(fmt.Sprintf("sum = %v", sum))
		}
		mn := g.AllReduce([]int64{id + 10}, Min)
		if mn[0] != 10 {
			panic("min wrong")
		}
		mx := g.AllReduce([]int64{id}, Max)
		if mx[0] != 7 {
			panic("max wrong")
		}
	})
}

func TestExclusiveScan(t *testing.T) {
	const p = 7
	run(t, p, func(ctx core.Ctx) {
		g := NewGroup(ctx, "t")
		id := int64(ctx.ID())
		prefix, total := g.ExclusiveScan(id+1, Sum, 0)
		want := id * (id + 1) / 2
		if prefix != want {
			panic(fmt.Sprintf("proc %d: prefix = %d, want %d", id, prefix, want))
		}
		if total != 28 {
			panic("total wrong")
		}
	})
}

func TestAllToAll(t *testing.T) {
	const p, k = 4, 3
	run(t, p, func(ctx core.Ctx) {
		g := NewGroup(ctx, "t")
		send := make([][]int64, p)
		for dst := 0; dst < p; dst++ {
			send[dst] = make([]int64, k)
			for i := range send[dst] {
				send[dst][i] = int64(ctx.ID()*100 + dst*10 + i)
			}
		}
		got := g.AllToAll(send, k)
		for src := 0; src < p; src++ {
			for i := 0; i < k; i++ {
				want := int64(src*100 + ctx.ID()*10 + i)
				if got[src][i] != want {
					panic(fmt.Sprintf("a2a[%d][%d] = %d, want %d", src, i, got[src][i], want))
				}
			}
		}
	})
}

func TestAllToAllBadShapePanics(t *testing.T) {
	sm := qsmlib.New(2, qsmlib.Options{Seed: 1})
	err := sm.Run(func(ctx core.Ctx) {
		g := NewGroup(ctx, "t")
		g.AllToAll([][]int64{{1}}, 1) // wrong block count
	})
	if err == nil {
		t.Fatal("shape mismatch should error")
	}
}

func TestCollectiveSequenceReusesNames(t *testing.T) {
	// Two groups with different prefixes and repeated ops must not collide.
	run(t, 3, func(ctx core.Ctx) {
		a := NewGroup(ctx, "a")
		b := NewGroup(ctx, "b")
		for i := 0; i < 3; i++ {
			a.Broadcast(0, []int64{int64(i)})
			b.AllGather([]int64{int64(ctx.ID())})
		}
	})
}

func TestCollectiveCostProfile(t *testing.T) {
	// AllGather's communication is k(p-1) remote words per processor.
	const p, k = 4, 5
	m := qsmlib.New(p, qsmlib.Options{Seed: 2})
	prof, err := core.RunProfiled(m, func(ctx core.Ctx) {
		g := NewGroup(ctx, "t")
		g.AllGather(make([]int64, k))
	}, core.Flags{})
	if err != nil {
		t.Fatal(err)
	}
	var maxRW uint64
	for _, ph := range prof.Phases {
		if rw := ph.MaxRW(); rw > maxRW {
			maxRW = rw
		}
	}
	if maxRW != uint64(k*(p-1)) {
		t.Errorf("allgather m_rw = %d, want %d", maxRW, k*(p-1))
	}
}

func BenchmarkAllReduceSim(b *testing.B) {
	m := qsmlib.New(16, qsmlib.Options{Seed: 1})
	if err := m.Run(func(ctx core.Ctx) {
		g := NewGroup(ctx, "b")
		v := []int64{int64(ctx.ID())}
		for i := 0; i < b.N; i++ {
			g.AllReduce(v, Sum)
		}
	}); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAllReduceNative(b *testing.B) {
	m := par.NewMachine(8, par.Options{Seed: 1})
	if err := m.Run(func(ctx core.Ctx) {
		g := NewGroup(ctx, "b")
		v := []int64{int64(ctx.ID())}
		for i := 0; i < b.N; i++ {
			g.AllReduce(v, Sum)
		}
	}); err != nil {
		b.Fatal(err)
	}
}
