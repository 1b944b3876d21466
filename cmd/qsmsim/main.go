// Command qsmsim runs one QSM algorithm on the simulated multiprocessor
// with configurable machine parameters, verifying the result and printing
// the measurement (and optionally the per-phase cost profile).
//
// Usage:
//
//	qsmsim -alg sort -n 262144 -p 16 -l 1600 -o 400 -g 3 [-profile] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/qsmlib"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	var (
		alg     = flag.String("alg", "sort", "algorithm: prefix, sort, rank, wyllie, kselect, or matmul")
		n       = flag.Int("n", 262144, "problem size")
		p       = flag.Int("p", 16, "processors")
		g       = flag.Float64("g", 3, "hardware gap, cycles/byte")
		l       = flag.Uint64("l", 1600, "latency, cycles")
		o       = flag.Uint64("o", 400, "per-message overhead, cycles")
		seed    = flag.Int64("seed", 1, "random seed")
		profile = flag.Bool("profile", false, "print the per-phase cost profile")
		tree    = flag.Bool("tree", false, "use the dissemination barrier")
	)
	flag.Parse()

	net := machine.DefaultNet()
	net.Gap = *g
	net.Latency = sim.Time(*l)
	net.SendOverhead = sim.Time(*o)
	net.RecvOverhead = sim.Time(*o)

	in := workload.UniformInts(*n, 0, *seed)
	input := func(id, pp int) []int64 {
		lo, hi := workload.Partition(*n, pp, id)
		return in[lo:hi]
	}

	var prog core.Program
	var verify func(got []int64) error
	var out string
	switch *alg {
	case "prefix":
		a := algorithms.PrefixSums{N: *n, Input: input}
		prog, out = a.Program(), a.Out()
		want := algorithms.SeqPrefix(in)
		verify = match(want)
	case "sort":
		a := algorithms.SampleSort{N: *n, Input: input}
		prog, out = a.Program(), a.Out()
		verify = match(algorithms.SeqSort(in))
	case "rank":
		list := workload.RandomList(*n, *seed)
		a := algorithms.ListRank{List: list}
		prog, out = a.Program(), a.Out()
		verify = match(algorithms.SeqListRank(list))
	case "wyllie":
		list := workload.RandomList(*n, *seed)
		a := algorithms.WyllieListRank{List: list}
		prog, out = a.Program(), a.Out()
		verify = match(algorithms.SeqListRank(list))
	case "kselect":
		a := algorithms.KSelect{N: *n, K: *n / 2, Input: input}
		prog, out = a.Program(), a.Out()
		want := algorithms.SeqSort(in)[*n/2]
		verify = match([]int64{want})
	case "matmul":
		// n is the matrix dimension here; keep it modest.
		dim := *n
		if dim > 512 {
			dim = 512
		}
		av := workload.UniformInts(dim*dim, 100, *seed)
		bv := workload.UniformInts(dim*dim, 100, *seed+1)
		rowInput := func(all []int64) func(id, pp int) []int64 {
			return func(id, pp int) []int64 {
				lo, hi := workload.Partition(dim, pp, id)
				return all[lo*dim : hi*dim]
			}
		}
		a := algorithms.MatMul{N: dim, A: rowInput(av), B: rowInput(bv)}
		prog, out = a.Program(), a.Out()
		verify = match(algorithms.SeqMatMul(av, bv, dim))
	default:
		fmt.Fprintf(os.Stderr, "qsmsim: unknown algorithm %q (prefix, sort, rank, wyllie, kselect, matmul)\n", *alg)
		os.Exit(2)
	}

	m := qsmlib.New(*p, qsmlib.Options{Net: net, Seed: *seed, TreeBarrier: *tree})
	var prof *core.Profile
	var err error
	if *profile {
		prof, err = core.RunProfiled(m, prog, core.Flags{})
	} else {
		err = m.Run(prog)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qsmsim: %v\n", err)
		os.Exit(1)
	}
	if err := verify(m.Array(out)); err != nil {
		fmt.Fprintf(os.Stderr, "qsmsim: verification failed: %v\n", err)
		os.Exit(1)
	}

	st := m.RunStats()
	fmt.Printf("%s: n=%d p=%d g=%.1fc/B l=%d o=%d\n", *alg, *n, *p, *g, *l, *o)
	fmt.Printf("  total          %12d cycles (%.3f ms at 400 MHz)\n",
		st.TotalCycles, float64(st.TotalCycles)/400e3)
	fmt.Printf("  communication  %12d cycles (bottleneck node)\n", st.MaxComm())
	fmt.Printf("  computation    %12d cycles (bottleneck node)\n", st.MaxComp())
	fmt.Printf("  messages       %12d (%d bytes on the wire)\n", st.MsgsSent, st.BytesSent)
	fmt.Println("  result verified against the sequential baseline")

	if prof != nil {
		fmt.Printf("\nper-phase profile (%d phases):\n", prof.NumPhases())
		fmt.Printf("  %-7s %-12s %-12s %-10s %s\n", "phase", "m_op", "m_rw", "h", "msgs")
		for i, ph := range prof.Phases {
			if ph.MaxOps() == 0 && ph.MaxRW() == 0 {
				continue
			}
			fmt.Printf("  %-7d %-12d %-12d %-10d %d\n",
				i, ph.MaxOps(), ph.MaxRW(), ph.MaxH(), ph.MaxMsgs())
		}
	}
}

func match(want []int64) func([]int64) error {
	return func(got []int64) error {
		if len(got) != len(want) {
			return fmt.Errorf("length %d != %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("index %d: got %d, want %d", i, got[i], want[i])
			}
		}
		return nil
	}
}
