package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/qsmlib"
	"repro/internal/report"
)

func init() {
	register("ext4", "Extension 4: the kappa term — hot-word contention vs QSM and s-QSM charges", ext4)
}

// ext4 probes the model's namesake feature: queuing at a single shared
// word. Every processor reads the same kappa/p words of one hot location's
// neighbourhood while a control run spreads the same volume evenly. The
// owner serialises the hot traffic, so measured time grows linearly in
// kappa — the s-QSM charge max(m_op, g*m_rw, g*kappa) tracks it, while the
// plain QSM charge (kappa, unscaled by g) underestimates the slope by a
// factor of g.
func ext4(opt Options) (*Result, error) {
	const p = defaultP
	mc := Calibrate(machine.DefaultNet(), opt.Seed, opt.Workers())
	gw := mc.ScatterCalib(p).GWord

	kappas := []int{16, 64, 256, 1024}
	// One job per kappa point, timing the hot and the spread pattern.
	type pair struct{ hot, spread float64 }
	ms := sweepPoints(opt, len(kappas), func(i int, rec *obs.Recorder) pair {
		return pair{
			hot:    contendedRun(p, kappas[i], true, opt.Seed, rec),
			spread: contendedRun(p, kappas[i], false, opt.Seed, rec),
		}
	})

	t := report.NewTable("Extension 4: contention at one owner (p=16; cycles)",
		"kappa (words at hot owner)", "measured hot", "measured spread", "hot/spread",
		"QSM charge", "s-QSM charge")
	for i, kappa := range kappas {
		hot, spread := ms[i].hot, ms[i].spread
		// Per-processor m_rw is kappa/p in both runs; the QSM charge for
		// the access phase is max(g*m_rw, kappa), the s-QSM charge
		// max(g*m_rw, g*kappa).
		mrw := float64(kappa) / float64(p)
		qsm := maxf(gw*mrw, float64(kappa))
		sqsm := maxf(gw*mrw, gw*float64(kappa))
		t.AddRow(fmt.Sprint(kappa),
			report.Cycles(hot), report.Cycles(spread), report.F(hot/spread),
			report.Cycles(qsm), report.Cycles(sqsm))
	}
	t.AddNote("measured hot-run time scales with g*kappa (the s-QSM charge), not kappa alone: contended words cost bandwidth at the owner, which is why the paper presents its results under s-QSM.")
	return &Result{ID: "ext4", Title: Title("ext4"), Tables: []*report.Table{t}}, nil
}

// contendedRun times one phase in which the p processors collectively make
// kappa single-word reads: all to one owner's words (hot) or spread evenly
// over all owners (control). Returns the phase duration in cycles beyond an
// empty sync.
func contendedRun(p, kappa int, hot bool, seed int64, rec *obs.Recorder) float64 {
	m := qsmlib.New(p, qsmlib.Options{Seed: seed, Obs: rec})
	n := p * kappa
	if err := m.Run(func(ctx core.Ctx) {
		h := ctx.Register("hot", n)
		ctx.Sync()
		perProc := kappa / p
		idx := make([]int, 0, perProc)
		for k := 0; k < perProc; k++ {
			if hot {
				// Words owned by processor 0 (first block), distinct per
				// requester so the traffic is kappa reads at one owner.
				idx = append(idx, (ctx.ID()*perProc+k)%(n/p))
			} else {
				// Spread: requester i reads from owner (i+k+1) mod p.
				owner := (ctx.ID() + k + 1) % p
				idx = append(idx, owner*(n/p)+(ctx.ID()*perProc+k)%(n/p))
			}
		}
		ctx.GetIndexed(h, idx, make([]int64, len(idx)))
		ctx.Sync()
	}); err != nil {
		panic(err)
	}
	total := float64(m.RunStats().TotalCycles)
	return total - float64(emptySyncCost(m.MP.Net, p, seed))*2
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
