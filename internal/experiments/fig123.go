package experiments

import (
	"repro/internal/algorithms"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/report"
)

// defaultP is the simulated machine size of Section 3 (16 nodes).
const defaultP = 16

// whpEps is the failure budget of the WHP prediction lines (the paper's
// bounds hold for at least 90% of runs).
const whpEps = 0.1

// oversample is the sample-sort over-sampling factor used throughout.
const oversample = 2

func sweepSizes(quick bool, sizes []int) []int {
	if quick && len(sizes) > 3 {
		return []int{sizes[0], sizes[len(sizes)/2], sizes[len(sizes)-1]}
	}
	return sizes
}

func init() {
	register("fig1", "Figure 1: prefix sums, measured vs QSM/BSP predicted communication", fig1)
	register("fig2", "Figure 2: sample sort, measured vs Best-case/WHP/QSM-estimate/BSP-estimate", fig2)
	register("fig3", "Figure 3: list ranking, measured vs Best-case/WHP/QSM-estimate/BSP-estimate", fig3)
}

func fig1(opt Options) (*Result, error) {
	net := machine.DefaultNet()
	mc := Calibrate(net, opt.Seed, opt.Workers())
	c := mc.Calib(defaultP)
	sizes := sweepSizes(opt.Quick, []int{4096, 16384, 65536, 262144, 1048576})

	per := sweepRuns(opt, len(sizes), opt.runs(), func(pt, r int, rec *obs.Recorder) measured {
		return prefixOnce(net, sizes[pt], defaultP, opt.Seed+int64(r), rec)
	})

	t := report.NewTable("Figure 1: prefix sums (p=16, g=3, l=1600, o=400; cycles)",
		"n", "measured total", "measured comm", "QSM pred", "BSP pred", "QSM/measured")
	for i, n := range sizes {
		m := avgMeasured(per[i])
		qsm := c.PrefixQSMComm()
		bsp := c.PrefixBSPComm()
		t.AddRow(report.Cycles(float64(n)), report.Cycles(m.Total), report.Cycles(m.Comm),
			report.Cycles(qsm), report.Cycles(bsp), report.F(qsm/m.Comm))
	}
	t.AddNote("QSM and BSP vastly underestimate: prefix communication is tiny and dominated by o and l, which both models omit (the paper's Figure 1 finding). Absolute error stays small.")
	t.AddNote("calibration: put %.1f c/B, get %.1f c/B, L=%s cycles", mc.PutGapPB, mc.GetGapPB, report.Cycles(mc.LBarrier))
	return &Result{ID: "fig1", Title: Title("fig1"), Tables: []*report.Table{t}}, nil
}

func fig2(opt Options) (*Result, error) {
	net := machine.DefaultNet()
	mc := Calibrate(net, opt.Seed, opt.Workers())
	c := mc.Calib(defaultP)
	sizes := sweepSizes(opt.Quick, []int{16384, 32768, 65536, 131072, 262144, 524288, 1048576})

	per := sweepRuns(opt, len(sizes), opt.runs(), func(pt, r int, rec *obs.Recorder) sortRun {
		return sortOnce(net, sizes[pt], defaultP, opt.Seed+int64(r), rec)
	})

	t := report.NewTable("Figure 2: sample sort (p=16; communication cycles)",
		"n", "total", "comm", "Best case", "WHP bound", "QSM est", "BSP est", "est/meas")
	for i, n := range sizes {
		sr := avgSort(per[i])
		best := c.SortQSMComm(n, oversample, models.SortBestCase(n, defaultP))
		whp := c.SortQSMComm(n, oversample, models.SortWHP(n, defaultP, oversample, whpEps))
		meas := models.SortSkews{B: sr.B, R: sr.R, OutW: sr.OutW}
		est := c.SortQSMComm(n, oversample, meas)
		bsp := c.SortBSPComm(n, oversample, meas)
		t.AddRow(report.Cycles(float64(n)), report.Cycles(sr.Total), report.Cycles(sr.Comm),
			report.Cycles(best), report.Cycles(whp), report.Cycles(est), report.Cycles(bsp),
			report.F(est/sr.Comm))
	}
	t.AddNote("expected shape: measured falls between Best case and WHP bound except at small n; QSM estimate converges toward measured as n grows; BSP estimate adds 5L.")
	return &Result{ID: "fig2", Title: Title("fig2"), Tables: []*report.Table{t}}, nil
}

func fig3(opt Options) (*Result, error) {
	net := machine.DefaultNet()
	mc := Calibrate(net, opt.Seed, opt.Workers())
	// List ranking's traffic is scattered single words, so its predictions
	// are charged at the word-granularity gap.
	c := mc.ScatterCalib(defaultP)
	sizes := sweepSizes(opt.Quick, []int{16384, 32768, 65536, 131072, 262144, 524288})
	iters := 16 // 4*log2(16)

	rankIters := algorithms.Iterations(0, defaultP)
	per := sweepRuns(opt, len(sizes), opt.runs(), func(pt, r int, rec *obs.Recorder) rankRun {
		return rankOnce(net, sizes[pt], defaultP, rankIters, opt.Seed+int64(r), rec)
	})

	t := report.NewTable("Figure 3: list ranking (p=16; communication cycles)",
		"n", "total", "comm", "Best case", "WHP bound", "QSM est", "BSP est", "est/meas")
	for i, n := range sizes {
		rr := avgRank(per[i])
		best := c.RankQSMComm(models.RankBestCase(n, defaultP, iters))
		whp := c.RankQSMComm(models.RankWHP(n, defaultP, iters, whpEps))
		est := c.RankQSMComm(models.RankMeasured(rr.X, rr.Z))
		bsp := c.RankBSPComm(models.RankMeasured(rr.X, rr.Z), iters)
		t.AddRow(report.Cycles(float64(n)), report.Cycles(rr.Total), report.Cycles(rr.Comm),
			report.Cycles(best), report.Cycles(whp), report.Cycles(est), report.Cycles(bsp),
			report.F(est/rr.Comm))
	}
	t.AddNote("expected shape: prediction accuracy improves with n; BSP (adding %d phases * L) lands nearer the measurement than QSM at moderate n.", models.RankPhases(iters))
	return &Result{ID: "fig3", Title: Title("fig3"), Tables: []*report.Table{t}}, nil
}
