package algorithms

import (
	"testing"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/qsmlib"
	"repro/internal/workload"
)

// backends runs a program on both the simulated and native machines and
// returns the named result array from each.
type runner struct {
	name string
	run  func(t *testing.T, p int, seed int64, prog core.Program, out string) []int64
}

func simRunner() runner {
	return runner{"sim", func(t *testing.T, p int, seed int64, prog core.Program, out string) []int64 {
		t.Helper()
		m := qsmlib.New(p, qsmlib.Options{Seed: seed})
		if err := m.Run(prog); err != nil {
			t.Fatal(err)
		}
		return m.Array(out)
	}}
}

func nativeRunner() runner {
	return runner{"native", func(t *testing.T, p int, seed int64, prog core.Program, out string) []int64 {
		t.Helper()
		m := par.NewMachine(p, par.Options{Seed: seed})
		if err := m.Run(prog); err != nil {
			t.Fatal(err)
		}
		return m.Array(out)
	}}
}

func bothBackends(t *testing.T, f func(t *testing.T, r runner)) {
	for _, r := range []runner{simRunner(), nativeRunner()} {
		r := r
		t.Run(r.name, func(t *testing.T) { f(t, r) })
	}
}

func blockInput(all []int64, n int) func(id, p int) []int64 {
	return func(id, p int) []int64 {
		lo, hi := workload.Partition(n, p, id)
		return all[lo:hi]
	}
}

func TestPrefixSumsMatchesSequential(t *testing.T) {
	bothBackends(t, func(t *testing.T, r runner) {
		for _, tc := range []struct{ n, p int }{
			{1000, 4}, {1000, 16}, {17, 4}, {5, 8}, {64, 1},
		} {
			in := workload.UniformInts(tc.n, 1000, 42)
			alg := PrefixSums{N: tc.n, Input: blockInput(in, tc.n)}
			got := r.run(t, tc.p, 1, alg.Program(), alg.Out())
			want := SeqPrefix(in)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d p=%d: out[%d] = %d, want %d", tc.n, tc.p, i, got[i], want[i])
				}
			}
		}
	})
}

func TestSampleSortMatchesSequential(t *testing.T) {
	bothBackends(t, func(t *testing.T, r runner) {
		for _, tc := range []struct{ n, p int }{
			{2000, 4}, {5000, 16}, {300, 8}, {1000, 1},
		} {
			in := workload.UniformInts(tc.n, 0, 7)
			alg := SampleSort{N: tc.n, Input: blockInput(in, tc.n)}
			got := r.run(t, tc.p, 2, alg.Program(), alg.Out())
			want := SeqSort(in)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d p=%d: out[%d] = %d, want %d", tc.n, tc.p, i, got[i], want[i])
				}
			}
		}
	})
}

func TestSampleSortWithDuplicates(t *testing.T) {
	bothBackends(t, func(t *testing.T, r runner) {
		n := 4000
		in := workload.ZipfInts(n, 1.3, 50, 9) // heavy duplication
		alg := SampleSort{N: n, Input: blockInput(in, n)}
		got := r.run(t, 8, 3, alg.Program(), alg.Out())
		want := SeqSort(in)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("out[%d] = %d, want %d", i, got[i], want[i])
			}
		}
	})
}

func TestSampleSortSkewMeasured(t *testing.T) {
	n, p := 5000, 8
	in := workload.UniformInts(n, 0, 11)
	skew := NewSortSkew(p)
	alg := SampleSort{N: n, Input: blockInput(in, n), Skew: skew}
	m := qsmlib.New(p, qsmlib.Options{Seed: 4})
	if err := m.Run(alg.Program()); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, b := range skew.BucketSize {
		total += b
	}
	if total != int64(n) {
		t.Fatalf("bucket sizes sum to %d, want %d", total, n)
	}
	if skew.B() < int64(n/p) {
		t.Errorf("B = %d below perfect balance %d", skew.B(), n/p)
	}
	if r := skew.R(); r < 0.5 || r > 1 {
		t.Errorf("R = %.2f, want in [0.5, 1] for p=8", r)
	}
}

func TestListRankMatchesSequential(t *testing.T) {
	bothBackends(t, func(t *testing.T, r runner) {
		for _, tc := range []struct{ n, p int }{
			{500, 4}, {2000, 8}, {100, 16}, {50, 1}, {3, 2},
		} {
			l := workload.RandomList(tc.n, 13)
			alg := ListRank{List: l}
			got := r.run(t, tc.p, 5, alg.Program(), alg.Out())
			want := SeqListRank(l)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d p=%d: rank[%d] = %d, want %d", tc.n, tc.p, i, got[i], want[i])
				}
			}
		}
	})
}

func TestListRankSequentialListInput(t *testing.T) {
	bothBackends(t, func(t *testing.T, r runner) {
		l := workload.SequentialList(777)
		alg := ListRank{List: l}
		got := r.run(t, 4, 6, alg.Program(), alg.Out())
		for i, v := range got {
			if v != int64(i) {
				t.Fatalf("rank[%d] = %d, want %d", i, v, i)
			}
		}
	})
}

func TestAlgorithmsObeyQSMRules(t *testing.T) {
	// Run each algorithm with the bulk-synchrony rule checker on; a
	// violation fails the run.
	n, p := 1200, 4
	in := workload.UniformInts(n, 0, 21)
	l := workload.RandomList(n, 22)
	progs := map[string]core.Program{
		"prefix":   PrefixSums{N: n, Input: blockInput(in, n)}.Program(),
		"sort":     SampleSort{N: n, Input: blockInput(in, n)}.Program(),
		"listrank": ListRank{List: l}.Program(),
	}
	for name, prog := range progs {
		name, prog := name, prog
		t.Run(name, func(t *testing.T) {
			m := qsmlib.New(p, qsmlib.Options{Seed: 31})
			if _, err := core.RunProfiled(m, prog, core.Flags{CheckRules: true, TrackKappa: true}); err != nil {
				t.Fatalf("QSM rule violation: %v", err)
			}
		})
	}
}

func TestPrefixProfileMatchesTheory(t *testing.T) {
	// The prefix sums algorithm's communication is exactly p-1 remote words
	// per processor in one phase (the broadcast).
	n, p := 10000, 8
	in := workload.UniformInts(n, 100, 3)
	alg := PrefixSums{N: n, Input: blockInput(in, n)}
	m := qsmlib.New(p, qsmlib.Options{Seed: 8})
	prof, err := core.RunProfiled(m, alg.Program(), core.Flags{})
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
		t.Errorf("max m_rw = %d, want %d", maxRW, p-1)
	}
	if prof.TotalRemoteWords() != uint64(p*(p-1)) {
		t.Errorf("total remote words = %d, want %d", prof.TotalRemoteWords(), p*(p-1))
	}
}

func TestSeqHelpers(t *testing.T) {
	if got := SeqPrefix([]int64{1, 2, 3}); got[0] != 1 || got[1] != 3 || got[2] != 6 {
		t.Errorf("SeqPrefix = %v", got)
	}
	if got := SeqSort([]int64{3, 1, 2}); got[0] != 1 || got[2] != 3 {
		t.Errorf("SeqSort = %v", got)
	}
	for n, want := range map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11} {
		if got := ceilLog2(n); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}
