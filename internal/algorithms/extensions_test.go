package algorithms

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/qsmlib"
	"repro/internal/workload"
)

func matInput(all []int64, n int) func(id, p int) []int64 {
	return func(id, p int) []int64 {
		lo, hi := workload.Partition(n, p, id)
		return all[lo*n : hi*n]
	}
}

func TestMatMulMatchesSequential(t *testing.T) {
	bothBackends(t, func(t *testing.T, r runner) {
		for _, tc := range []struct{ n, p int }{
			{16, 4}, {32, 8}, {33, 4}, {8, 16}, {24, 1},
		} {
			n := tc.n
			a := workload.UniformInts(n*n, 50, 11)
			bm := workload.UniformInts(n*n, 50, 12)
			alg := MatMul{N: n, A: matInput(a, n), B: matInput(bm, n)}
			got := r.run(t, tc.p, 3, alg.Program(), alg.Out())
			want := SeqMatMul(a, bm, n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d p=%d: C[%d] = %d, want %d", n, tc.p, i, got[i], want[i])
				}
			}
		}
	})
}

func TestMatMulTrendsComputeBound(t *testing.T) {
	// The QSM story for matmul: computation is Theta(n^3/p) but
	// communication only Theta(n^2), so the comm/comp ratio must fall
	// roughly in half each time n doubles. (On this machine's ~300
	// cycles/word effective gap the absolute crossover sits near
	// n ~ g_word*p, beyond practical simulation sizes.)
	p := 8
	ratio := func(n int) float64 {
		a := workload.UniformInts(n*n, 10, 1)
		bm := workload.UniformInts(n*n, 10, 2)
		alg := MatMul{N: n, A: matInput(a, n), B: matInput(bm, n)}
		m := qsmlib.New(p, qsmlib.Options{Seed: 4})
		if err := m.Run(alg.Program()); err != nil {
			t.Fatal(err)
		}
		st := m.RunStats()
		return float64(st.MaxComm()) / float64(st.MaxComp())
	}
	r96, r192 := ratio(96), ratio(192)
	if r192 > 0.7*r96 {
		t.Errorf("comm/comp ratio did not fall with n: %.2f -> %.2f", r96, r192)
	}
}

func TestMatMulObeysRules(t *testing.T) {
	n, p := 32, 4
	a := workload.UniformInts(n*n, 10, 5)
	bm := workload.UniformInts(n*n, 10, 6)
	alg := MatMul{N: n, A: matInput(a, n), B: matInput(bm, n)}
	m := qsmlib.New(p, qsmlib.Options{Seed: 7})
	if _, err := core.RunProfiled(m, alg.Program(), core.Flags{CheckRules: true}); err != nil {
		t.Fatal(err)
	}
}

func TestKSelectMatchesSequential(t *testing.T) {
	bothBackends(t, func(t *testing.T, r runner) {
		n := 20000
		in := workload.UniformInts(n, 1000, 21) // heavy duplication
		sorted := SeqSort(in)
		for _, k := range []int{0, 1, n / 3, n / 2, n - 2, n - 1} {
			alg := KSelect{N: n, K: k, Input: blockInput(in, n), GatherAt: 512}
			got := r.run(t, 8, 5, alg.Program(), alg.Out())
			if got[0] != sorted[k] {
				t.Fatalf("k=%d: got %d, want %d", k, got[0], sorted[k])
			}
		}
	})
}

func TestKSelectDistinctValues(t *testing.T) {
	bothBackends(t, func(t *testing.T, r runner) {
		n := 5000
		in := workload.UniformInts(n, 0, 33)
		sorted := SeqSort(in)
		k := 1234
		alg := KSelect{N: n, K: k, Input: blockInput(in, n)}
		got := r.run(t, 4, 9, alg.Program(), alg.Out())
		if got[0] != sorted[k] {
			t.Fatalf("got %d, want %d", got[0], sorted[k])
		}
	})
}

func TestKSelectSingleProc(t *testing.T) {
	n := 1000
	in := workload.UniformInts(n, 0, 44)
	sorted := SeqSort(in)
	alg := KSelect{N: n, K: 500, Input: blockInput(in, n)}
	m := qsmlib.New(1, qsmlib.Options{Seed: 1})
	if err := m.Run(alg.Program()); err != nil {
		t.Fatal(err)
	}
	if got := m.Array(alg.Out())[0]; got != sorted[500] {
		t.Fatalf("got %d, want %d", got, sorted[500])
	}
}

func TestKSelectObeysRules(t *testing.T) {
	n := 3000
	in := workload.UniformInts(n, 100, 55)
	alg := KSelect{N: n, K: n / 2, Input: blockInput(in, n), GatherAt: 256}
	m := qsmlib.New(4, qsmlib.Options{Seed: 2})
	if _, err := core.RunProfiled(m, alg.Program(), core.Flags{CheckRules: true}); err != nil {
		t.Fatal(err)
	}
}

func TestKSelectBadKPanics(t *testing.T) {
	in := workload.UniformInts(10, 0, 1)
	alg := KSelect{N: 10, K: 10, Input: blockInput(in, 10)}
	m := qsmlib.New(2, qsmlib.Options{Seed: 1})
	if err := m.Run(alg.Program()); err == nil {
		t.Fatal("k out of range should error")
	}
}

func BenchmarkMatMulSim(b *testing.B) {
	n, p := 128, 8
	a := workload.UniformInts(n*n, 10, 1)
	bm := workload.UniformInts(n*n, 10, 2)
	alg := MatMul{N: n, A: matInput(a, n), B: matInput(bm, n)}
	for i := 0; i < b.N; i++ {
		m := qsmlib.New(p, qsmlib.Options{Seed: int64(i)})
		if err := m.Run(alg.Program()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKSelectSim(b *testing.B) {
	n, p := 100000, 16
	in := workload.UniformInts(n, 0, 9)
	alg := KSelect{N: n, K: n / 2, Input: blockInput(in, n)}
	for i := 0; i < b.N; i++ {
		m := qsmlib.New(p, qsmlib.Options{Seed: int64(i)})
		if err := m.Run(alg.Program()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWyllieMatchesSequential(t *testing.T) {
	bothBackends(t, func(t *testing.T, r runner) {
		for _, tc := range []struct{ n, p int }{
			{300, 4}, {1000, 8}, {64, 16}, {7, 2}, {50, 1},
		} {
			l := workload.RandomList(tc.n, 31)
			alg := WyllieListRank{List: l}
			got := r.run(t, tc.p, 7, alg.Program(), alg.Out())
			want := SeqListRank(l)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d p=%d: rank[%d] = %d, want %d", tc.n, tc.p, i, got[i], want[i])
				}
			}
		}
	})
}

func TestWyllieObeysRules(t *testing.T) {
	l := workload.RandomList(500, 37)
	alg := WyllieListRank{List: l}
	m := qsmlib.New(4, qsmlib.Options{Seed: 3})
	if _, err := core.RunProfiled(m, alg.Program(), core.Flags{CheckRules: true}); err != nil {
		t.Fatal(err)
	}
}

func TestWyllieMoreExpensiveThanRandomized(t *testing.T) {
	// Section 2.1's point: the PRAM-style algorithm keeps all n elements
	// active every round (Theta(n log n) communication) while the QSM
	// algorithm eliminates geometrically (Theta(n)).
	n, p := 32768, 16
	l := workload.RandomList(n, 41)
	mw := qsmlib.New(p, qsmlib.Options{Seed: 4})
	if err := mw.Run(WyllieListRank{List: l}.Program()); err != nil {
		t.Fatal(err)
	}
	mr := qsmlib.New(p, qsmlib.Options{Seed: 4})
	if err := mr.Run(ListRank{List: l}.Program()); err != nil {
		t.Fatal(err)
	}
	w := float64(mw.RunStats().TotalCycles)
	r := float64(mr.RunStats().TotalCycles)
	if w < 1.5*r {
		t.Errorf("Wyllie (%0.f) should cost well above randomized (%0.f)", w, r)
	}
}

// TestSampleSortAdversarialInputs exercises the sorter on inputs where
// random sampling is stressed: pre-sorted, reverse-sorted, nearly sorted,
// and all-equal; and on mixed-sign keys spanning the whole int64 range,
// which the local radix sort orders only through its sign-bit flip.
func TestSampleSortAdversarialInputs(t *testing.T) {
	const n, p = 6000, 8
	mixed := workload.UniformInts(n, 0, 9)
	for i := 1; i < n; i += 2 {
		mixed[i] = ^mixed[i] // [0, MaxInt64] -> [MinInt64, -1]
	}
	mixed[0], mixed[n/2] = math.MinInt64, math.MaxInt64
	cases := map[string][]int64{
		"sorted":        workload.SortedInts(n),
		"reverse":       workload.ReverseSortedInts(n),
		"nearly-sorted": workload.NearlySortedInts(n, 0.05, 3),
		"all-equal":     workload.ConstantInts(n, 7),
		"mixed-sign":    mixed,
	}
	for name, in := range cases {
		name, in := name, in
		t.Run(name, func(t *testing.T) {
			alg := SampleSort{N: n, Input: blockInput(in, n)}
			m := qsmlib.New(p, qsmlib.Options{Seed: 6})
			if err := m.Run(alg.Program()); err != nil {
				t.Fatal(err)
			}
			want := SeqSort(in)
			got := m.Array(alg.Out())
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("out[%d] = %d, want %d", i, got[i], want[i])
				}
			}
		})
	}
}

func TestRadixSortMatchesSequential(t *testing.T) {
	bothBackends(t, func(t *testing.T, r runner) {
		for _, tc := range []struct{ n, p int }{
			{2000, 4}, {5000, 16}, {333, 8}, {100, 1},
		} {
			in := workload.UniformInts(tc.n, 1<<30, 61)
			alg := RadixSort{N: tc.n, KeyBits: 30, Input: blockInput(in, tc.n)}
			got := r.run(t, tc.p, 11, alg.Program(), alg.Out())
			want := SeqSort(in)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d p=%d: out[%d] = %d, want %d", tc.n, tc.p, i, got[i], want[i])
				}
			}
		}
	})
}

func TestRadixSortDuplicatesAndAdversarial(t *testing.T) {
	const n, p = 4000, 8
	for name, in := range map[string][]int64{
		"zipf":    workload.ZipfInts(n, 1.4, 1000, 63),
		"sorted":  workload.SortedInts(n),
		"reverse": workload.ReverseSortedInts(n),
	} {
		name, in := name, in
		t.Run(name, func(t *testing.T) {
			alg := RadixSort{N: n, KeyBits: 16, Input: blockInput(in, n)}
			m := qsmlib.New(p, qsmlib.Options{Seed: 12})
			if err := m.Run(alg.Program()); err != nil {
				t.Fatal(err)
			}
			want := SeqSort(in)
			got := m.Array(alg.Out())
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("out[%d] = %d, want %d", i, got[i], want[i])
				}
			}
		})
	}
}

func TestRadixSortRejectsOutOfRangeKeys(t *testing.T) {
	in := []int64{5, -1, 3, 2}
	alg := RadixSort{N: 4, KeyBits: 8, Input: blockInput(in, 4)}
	m := qsmlib.New(2, qsmlib.Options{Seed: 1})
	if err := m.Run(alg.Program()); err == nil {
		t.Fatal("negative key should error")
	}
}

func TestRadixSortObeysRules(t *testing.T) {
	n := 1500
	in := workload.UniformInts(n, 1<<16, 71)
	alg := RadixSort{N: n, KeyBits: 16, Input: blockInput(in, n)}
	m := qsmlib.New(4, qsmlib.Options{Seed: 13})
	if _, err := core.RunProfiled(m, alg.Program(), core.Flags{CheckRules: true}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSortStyles races the randomized sample sort against the
// deterministic radix sort at equal n on the simulated machine.
func BenchmarkSortStyles(b *testing.B) {
	const n, p = 131072, 16
	in := workload.UniformInts(n, 1<<30, 5)
	b.Run("samplesort", func(b *testing.B) {
		alg := SampleSort{N: n, Input: blockInput(in, n)}
		for i := 0; i < b.N; i++ {
			m := qsmlib.New(p, qsmlib.Options{Seed: int64(i)})
			if err := m.Run(alg.Program()); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(m.RunStats().TotalCycles), "simcycles/op")
		}
	})
	b.Run("radixsort", func(b *testing.B) {
		alg := RadixSort{N: n, KeyBits: 30, Input: blockInput(in, n)}
		for i := 0; i < b.N; i++ {
			m := qsmlib.New(p, qsmlib.Options{Seed: int64(i)})
			if err := m.Run(alg.Program()); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(m.RunStats().TotalCycles), "simcycles/op")
		}
	})
}
