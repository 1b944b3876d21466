// Sorting: the paper's sample sort on both backends.
//
// The same core.Program runs (1) on the cycle-accurate simulated 16-node
// machine, reporting simulated communication time against the QSM
// prediction computed from the measured load balance, and (2) on the native
// goroutine runtime, reporting wall-clock time against the sequential sort.
//
//	go run ./examples/sorting [-n 262144] [-p 16]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/algorithms"
	"repro/internal/models"
	"repro/internal/par"
	"repro/internal/qsmlib"
	"repro/internal/workload"
)

var (
	n = flag.Int("n", 262144, "elements to sort")
	p = flag.Int("p", 16, "processors")
)

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sorting:", err)
		os.Exit(1)
	}
}

// run sorts one input on both backends and writes the simulated
// measurement, then the native wall times, to w.
func run(w io.Writer) error {
	in := workload.UniformInts(*n, 0, 7)
	input := func(id, pp int) []int64 {
		lo, hi := workload.Partition(*n, pp, id)
		return in[lo:hi]
	}
	want := algorithms.SeqSort(in)

	// --- Simulated machine: paper-style measurement. ---
	skew := algorithms.NewSortSkew(*p)
	alg := algorithms.SampleSort{N: *n, Input: input, Skew: skew}
	sm := qsmlib.New(*p, qsmlib.Options{Seed: 1})
	if err := sm.Run(alg.Program()); err != nil {
		return err
	}
	st := sm.RunStats()
	if !slices.Equal(sm.Array(alg.Out()), want) {
		return fmt.Errorf("simulated sort differs from the sequential sort")
	}

	// A crude effective gap: Table 3's bulk put+get average is ~39 c/B,
	// i.e. ~312 cycles/word (run cmd/qsmbench -exp table3 to recalibrate).
	calib := models.Calib{P: *p, GWord: 312, L: 51000}
	est := calib.SortQSMComm(*n, 2, models.SortSkews{
		B: float64(skew.B()), R: skew.R(), OutW: float64(skew.OutW()),
	})
	fmt.Fprintf(w, "simulated machine (p=%d, n=%d):\n", *p, *n)
	fmt.Fprintf(w, "  total %d cycles (%.2f ms at 400 MHz)\n", st.TotalCycles,
		float64(st.TotalCycles)/400e3)
	fmt.Fprintf(w, "  communication %d cycles; QSM estimate %0.f (ratio %.2f)\n",
		st.MaxComm(), est, est/float64(st.MaxComm()))
	fmt.Fprintf(w, "  skews: largest bucket B=%d (ideal %d), remote fraction r=%.3f\n\n",
		skew.B(), *n / *p, skew.R())

	// --- Native runtime: real goroutines. ---
	nm := par.NewMachine(*p, par.Options{Seed: 1})
	t0 := time.Now()
	if err := nm.Run(algorithms.SampleSort{N: *n, Input: input}.Program()); err != nil {
		return err
	}
	parallel := time.Since(t0)
	if !slices.Equal(nm.Array(alg.Out()), want) {
		return fmt.Errorf("native sort differs from the sequential sort")
	}

	t0 = time.Now()
	algorithms.SeqSort(in)
	seq := time.Since(t0)
	fmt.Fprintf(w, "native runtime (p=%d goroutines):\n", *p)
	speedup := float64(seq) / float64(parallel)
	fmt.Fprintf(w, "  parallel %v, sequential %v (speedup %.2fx)\n", parallel, seq, speedup)
	if speedup < 1 {
		fmt.Fprintln(w, "  (barrier overhead dominates at this size/core count; try -n 4194304)")
	}
	_, err := fmt.Fprintln(w, "  both backends produced the correct sorted output")
	return err
}
