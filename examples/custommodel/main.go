// Custommodel: writing a new algorithm against the QSM interface and
// costing it under four models at once.
//
// The algorithm is a parallel histogram: every processor counts its local
// elements into b buckets, writes its counts to the owner of each bucket
// range, and bucket owners reduce. The run is profiled with core.RunProfiled,
// and the per-phase m_op / m_rw / h-relation / message counts feed the QSM,
// s-QSM, BSP and LogP charges — no algorithm changes required.
//
//	go run ./examples/custommodel
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/qsmlib"
	"repro/internal/workload"
)

const (
	n       = 1 << 18
	p       = 16
	buckets = 256
)

// histogram is the new QSM algorithm.
func histogram(ctx core.Ctx) {
	id := ctx.ID()
	lo, hi := workload.Partition(n, p, id)
	local := workload.UniformInts(hi-lo, buckets, int64(100+id))

	// counts is a p x buckets matrix: row i holds processor i's partial
	// counts, owned blocked so each row lands on its writer... then each
	// bucket owner gathers a column. Simpler: partials[writer*buckets+b].
	partials := ctx.RegisterSpec("hist.partials", p*buckets, core.LayoutSpec{Kind: core.LayoutBlocked})
	final := ctx.RegisterSpec("hist.final", buckets, core.LayoutSpec{Kind: core.LayoutBlocked})
	ctx.Sync()

	// Phase 1: local counting (pure computation) and publishing partials.
	mine := make([]int64, buckets)
	for _, v := range local {
		mine[v]++
	}
	ctx.Compute(cpu.BlockCompact(len(local)))
	ctx.WriteLocal(partials, id*buckets, mine)
	ctx.Sync()

	// Phase 2: each processor owns buckets/p buckets and gathers the other
	// processors' partial counts for them.
	perOwner := buckets / p
	myLo := id * perOwner
	col := make([]int64, p*perOwner)
	idx := make([]int, 0, (p-1)*perOwner)
	pos := make([]int, 0, (p-1)*perOwner)
	for src := 0; src < p; src++ {
		for b := 0; b < perOwner; b++ {
			at := src*perOwner + b
			if src == id {
				ctx.ReadLocal(partials, src*buckets+myLo+b, col[at:at+1])
				continue
			}
			idx = append(idx, src*buckets+myLo+b)
			pos = append(pos, at)
		}
	}
	tmp := make([]int64, len(idx))
	ctx.GetIndexed(partials, idx, tmp)
	ctx.Sync()
	for k, at := range pos {
		col[at] = tmp[k]
	}

	// Phase 3: reduce and write the owned slice of the final histogram.
	out := make([]int64, perOwner)
	for src := 0; src < p; src++ {
		for b := 0; b < perOwner; b++ {
			out[b] += col[src*perOwner+b]
		}
	}
	ctx.Compute(cpu.BlockSum(p * perOwner))
	ctx.WriteLocal(final, myLo, out)
	ctx.Sync()
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "custommodel:", err)
		os.Exit(1)
	}
}

// run profiles the histogram and writes its phase table and model charges
// to w.
func run(w io.Writer) error {
	m := qsmlib.New(p, qsmlib.Options{Seed: 9})
	prof, err := core.RunProfiled(m, histogram, core.Flags{CheckRules: true, TrackKappa: true})
	if err != nil {
		return err
	}
	st := m.RunStats()

	var total int64
	for _, v := range m.Array("hist.final") {
		total += v
	}
	fmt.Fprintf(w, "histogram of %d values in %d buckets: mass %d (expect %d)\n\n", n, buckets, total, n)

	fmt.Fprintf(w, "%-7s %-10s %-10s %-8s %-8s %s\n", "phase", "m_op", "m_rw", "h", "msgs", "kappa")
	for i, ph := range prof.Phases {
		fmt.Fprintf(w, "%-7d %-10d %-10d %-8d %-8d %d\n",
			i, ph.MaxOps(), ph.MaxRW(), ph.MaxH(), ph.MaxMsgs(), ph.Kappa)
	}

	// Charge the same run under four cost models (g from Table 3's observed
	// bulk gap, in word units; L from the measured empty-sync cost).
	const gWord, L, lat, o = 312, 51000, 1600, 400
	fmt.Fprintf(w, "\nmodel charges for the whole run:\n")
	fmt.Fprintf(w, "  QSM    max(m_op, g*m_rw, kappa)      = %.0f cycles\n", prof.Time(core.QSM{G: gWord}))
	fmt.Fprintf(w, "  s-QSM  max(m_op, g*m_rw, g*kappa)    = %.0f cycles\n", prof.Time(core.SQSM{G: gWord}))
	fmt.Fprintf(w, "  BSP    sum max(m_op, g*h) + L/phase  = %.0f cycles\n", prof.Time(core.BSP{G: gWord, L: L}))
	fmt.Fprintf(w, "  LogP   2o*msgs + g*h + l per phase   = %.0f cycles (comm only)\n", prof.CommTime(core.LogP{G: gWord, L: lat, O: o}))
	fmt.Fprintf(w, "\nmeasured on the simulated machine: total %d, comm %d cycles\n",
		st.TotalCycles, st.MaxComm())
	_, err = fmt.Fprintln(w, "bulk-synchrony rules checked: no word read and written in one phase")
	return err
}
