package bsp

import (
	"fmt"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/qsmlib"
	"repro/internal/workload"
)

func blockInput(all []int64, n int) func(id, p int) []int64 {
	return func(id, p int) []int64 {
		lo, hi := workload.Partition(n, p, id)
		return all[lo:hi]
	}
}

func TestEmulationPutGetRoundTrip(t *testing.T) {
	for _, def := range []core.LayoutKind{core.LayoutBlocked, core.LayoutCyclic, core.LayoutHashed} {
		def := def
		t.Run(fmt.Sprint(def), func(t *testing.T) {
			qm := NewQSM(4, Options{Seed: 1}, def)
			err := qm.Run(func(ctx core.Ctx) {
				h := ctx.Register("a", 64)
				ctx.Sync()
				vals := make([]int64, 16)
				for i := range vals {
					vals[i] = int64(ctx.ID()*16 + i + 500)
				}
				ctx.Put(h, ctx.ID()*16, vals)
				ctx.Sync()
				got := make([]int64, 64)
				ctx.Get(h, 0, got)
				ctx.Sync()
				for i, v := range got {
					if v != int64(i+500) {
						panic("bad value through emulation")
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			data := qm.Array("a")
			for i, v := range data {
				if v != int64(i+500) {
					t.Fatalf("reconstructed[%d] = %d", i, v)
				}
			}
		})
	}
}

// TestEmulationRunsPaperAlgorithms is the headline check: the three paper
// algorithms run unchanged through QSM-on-BSP and produce correct results.
func TestEmulationRunsPaperAlgorithms(t *testing.T) {
	const n, p = 3000, 8
	in := workload.UniformInts(n, 0, 17)
	l := workload.RandomList(n, 18)

	t.Run("prefix", func(t *testing.T) {
		alg := algorithms.PrefixSums{N: n, Input: blockInput(in, n)}
		qm := NewQSM(p, Options{Seed: 2}, core.LayoutBlocked)
		if err := qm.Run(alg.Program()); err != nil {
			t.Fatal(err)
		}
		want := algorithms.SeqPrefix(in)
		got := qm.Array(alg.Out())
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("prefix[%d] = %d, want %d", i, got[i], want[i])
			}
		}
	})
	t.Run("sort", func(t *testing.T) {
		alg := algorithms.SampleSort{N: n, Input: blockInput(in, n)}
		qm := NewQSM(p, Options{Seed: 3}, core.LayoutBlocked)
		if err := qm.Run(alg.Program()); err != nil {
			t.Fatal(err)
		}
		want := algorithms.SeqSort(in)
		got := qm.Array(alg.Out())
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("sort[%d] = %d, want %d", i, got[i], want[i])
			}
		}
	})
	t.Run("listrank", func(t *testing.T) {
		alg := algorithms.ListRank{List: l}
		qm := NewQSM(p, Options{Seed: 4}, core.LayoutBlocked)
		if err := qm.Run(alg.Program()); err != nil {
			t.Fatal(err)
		}
		want := algorithms.SeqListRank(l)
		got := qm.Array(alg.Out())
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rank[%d] = %d, want %d", i, got[i], want[i])
			}
		}
	})
}

// TestEmulationOverheadModest compares sample sort through the emulation
// against the native QSM library: the bridging result promises a small
// constant factor.
func TestEmulationOverheadModest(t *testing.T) {
	const n, p = 20000, 8
	in := workload.UniformInts(n, 0, 23)
	alg := algorithms.SampleSort{N: n, Input: blockInput(in, n)}

	direct := qsmlib.New(p, qsmlib.Options{Seed: 5})
	if err := direct.Run(alg.Program()); err != nil {
		t.Fatal(err)
	}
	emu := NewQSM(p, Options{Seed: 5}, core.LayoutBlocked)
	if err := emu.Run(alg.Program()); err != nil {
		t.Fatal(err)
	}
	d := float64(direct.RunStats().TotalCycles)
	e := float64(emu.RunStats().TotalCycles)
	ratio := e / d
	t.Logf("emulation overhead: %.2fx (%0.f vs %0.f cycles)", ratio, e, d)
	if ratio > 3 || ratio < 0.5 {
		t.Errorf("emulation overhead %.2fx outside the expected small constant", ratio)
	}
}

func TestEmulationProfiled(t *testing.T) {
	const n, p = 2000, 4
	in := workload.UniformInts(n, 0, 29)
	alg := algorithms.PrefixSums{N: n, Input: blockInput(in, n)}
	qm := NewQSM(p, Options{Seed: 6}, core.LayoutBlocked)
	prof, err := core.RunProfiled(qm, alg.Program(), core.Flags{CheckRules: true})
	if err != nil {
		t.Fatal(err)
	}
	var maxRW uint64
	for _, ph := range prof.Phases {
		if rw := ph.MaxRW(); rw > maxRW {
			maxRW = rw
		}
	}
	if maxRW != uint64(p-1) {
		t.Errorf("emulated prefix m_rw = %d, want %d", maxRW, p-1)
	}
}

func TestEmulationHashedLayoutWorks(t *testing.T) {
	// A hashed QSM array through the emulation spreads slots correctly.
	qm := NewQSM(8, Options{Seed: 7}, core.LayoutHashed)
	err := qm.Run(func(ctx core.Ctx) {
		h := ctx.Register("h", 500)
		ctx.Sync()
		if ctx.ID() == 0 {
			idx := make([]int, 500)
			vals := make([]int64, 500)
			for i := range idx {
				idx[i] = i
				vals[i] = int64(3 * i)
			}
			ctx.PutIndexed(h, idx, vals)
		}
		ctx.Sync()
		got := make([]int64, 500)
		ctx.Get(h, 0, got)
		ctx.Sync()
		for i, v := range got {
			if v != int64(3*i) {
				panic("hashed emulation wrong")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEmulationFree(t *testing.T) {
	qm := NewQSM(3, Options{Seed: 8}, core.LayoutBlocked)
	err := qm.Run(func(ctx core.Ctx) {
		h := ctx.Register("tmp", 9)
		ctx.Sync()
		ctx.Free(h)
		ctx.Sync()
		h2 := ctx.Register("tmp", 12) // name reusable after collective free
		_ = h2
		ctx.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	// The last Free drops every processor's copy of the backing region; the
	// re-registered array got a fresh one.
	for proc := 0; proc < 3; proc++ {
		if got := qm.M.RegionData("qsm.0.tmp", proc); got != nil {
			t.Errorf("freed region still holds %v on proc %d", got, proc)
		}
		if got := len(qm.M.RegionData("qsm.1.tmp", proc)); got != 4 {
			t.Errorf("live region has %d words on proc %d, want 4", got, proc)
		}
	}
	if qm.M.regions[0].data != nil {
		t.Error("freed region's per-processor copies are still referenced")
	}
}
