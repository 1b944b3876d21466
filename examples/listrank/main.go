// List ranking: the paper's canonical irregular workload, with a latency
// sensitivity mini-sweep (the Section 3.3 experiment in miniature).
//
// A random linked list is ranked on the simulated 16-node machine at
// several hardware latencies. Because the algorithm is bulk-synchronous,
// its communication time barely moves until the latency is enormous — the
// QSM model's justification for omitting l.
//
//	go run ./examples/listrank [-n 65536]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/algorithms"
	"repro/internal/machine"
	"repro/internal/qsmlib"
	"repro/internal/sim"
	"repro/internal/workload"
)

var n = flag.Int("n", 65536, "list length")

func main() {
	flag.Parse()
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "listrank:", err)
		os.Exit(1)
	}
}

// run ranks one list at five latencies and writes the sweep to w.
func run(w io.Writer) error {
	const p = 16

	l := workload.RandomList(*n, 3)
	want := algorithms.SeqListRank(l)

	fmt.Fprintf(w, "list ranking, n=%d, p=%d\n", *n, p)
	fmt.Fprintf(w, "%-14s %-16s %-16s %s\n", "latency l", "total cycles", "comm cycles", "comm vs l=1600")
	var base float64
	for _, lat := range []sim.Time{1600, 6400, 25600, 102400, 409600} {
		net := machine.DefaultNet()
		net.Latency = lat
		m := qsmlib.New(p, qsmlib.Options{Net: net, Seed: 5})
		if err := m.Run(algorithms.ListRank{List: l}.Program()); err != nil {
			return err
		}
		got := m.Array("rank.R")
		for i := range want {
			if got[i] != want[i] {
				return errors.New("wrong ranks")
			}
		}
		st := m.RunStats()
		comm := float64(st.MaxComm())
		if base == 0 {
			base = comm
		}
		fmt.Fprintf(w, "%-14d %-16d %-16d %.2fx\n", lat, st.TotalCycles, st.MaxComm(), comm/base)
	}
	_, err := fmt.Fprintln(w, "\nranks verified against sequential traversal at every latency")
	return err
}
