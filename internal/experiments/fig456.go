package experiments

import (
	"math"

	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
)

func init() {
	register("fig4", "Figure 4: sample sort measured comm vs QSM predictions as latency l varies", fig4)
	register("fig5", "Figure 5: problem size for measured comm to enter [Best, WHP] band vs latency l", fig5)
	register("fig6", "Figure 6: problem size for measured comm to enter [Best, WHP] band vs overhead o", fig6)
}

// latSweep are the hardware latencies of the Figure 4/5 sweep (default
// l = 1600 and well beyond).
var latSweep = []sim.Time{1600, 12800, 102400, 409600}

// ovhSweep are the per-message overheads of the Figure 6 sweep.
var ovhSweep = []sim.Time{400, 3200, 25600, 102400}

func fig4(opt Options) (*Result, error) {
	base := machine.DefaultNet()
	// Prediction lines are computed once, on the default configuration:
	// QSM does not model l, so its predictions are constant as l varies.
	mc := Calibrate(base, opt.Seed, opt.Workers())
	c := mc.Calib(defaultP)
	sizes := sweepSizes(opt.Quick, []int{16384, 65536, 262144, 1048576})
	lats := latSweep
	if opt.Quick {
		lats = lats[:2]
	}

	// The sweep grid is (latency, n); flatten it so the pool sees every
	// (point, run) job at once.
	type point struct {
		l sim.Time
		n int
	}
	var pts []point
	for _, l := range lats {
		for _, n := range sizes {
			pts = append(pts, point{l, n})
		}
	}
	per := sweepRuns(opt, len(pts), opt.runs(), func(pt, r int, rec *obs.Recorder) sortRun {
		net := base
		net.Latency = pts[pt].l
		return sortOnce(net, pts[pt].n, defaultP, opt.Seed+int64(r), rec)
	})

	t := report.NewTable("Figure 4: sample sort comm vs latency (p=16; cycles)",
		"l", "n", "measured comm", "Best case", "WHP bound", "meas/WHP")
	for i, pt := range pts {
		srr := avgSort(per[i])
		best := c.SortQSMComm(pt.n, oversample, models.SortBestCase(pt.n, defaultP))
		whp := c.SortQSMComm(pt.n, oversample, models.SortWHP(pt.n, defaultP, oversample, whpEps))
		t.AddRow(report.Cycles(float64(pt.l)), report.Cycles(float64(pt.n)),
			report.Cycles(srr.Comm), report.Cycles(best), report.Cycles(whp),
			report.F(srr.Comm/whp))
	}
	t.AddNote("QSM's prediction lines do not move with l; larger l pushes the measured line above them until n grows enough to hide the latency by pipelining.")
	return &Result{ID: "fig4", Title: Title("fig4"), Tables: []*report.Table{t}}, nil
}

// crossoverN finds the smallest problem size at which the measured
// communication time falls to or below the WHP bound, interpolating
// geometrically between bracketing sweep points. It returns 0 if the
// measured line never crosses within the sweep. The scan over sizes is
// adaptive (it stops at the first crossing), so only each size's runs fan
// out across the pool.
func crossoverN(net machine.NetParams, c models.Calib, opt Options) float64 {
	sizes := []int{8192, 16384, 32768, 65536, 131072, 262144, 524288, 1048576, 2097152}
	if opt.Quick {
		sizes = sizes[:6]
	}
	prevN, prevRatio := 0, 0.0
	runs := opt.runs()
	if runs > 3 {
		runs = 3 // the crossover scan is the expensive part; 3 repetitions suffice
	}
	for _, n := range sizes {
		srr := runSort(net, n, defaultP, runs, opt.Seed, opt.Workers())
		whp := c.SortQSMComm(n, oversample, models.SortWHP(n, defaultP, oversample, whpEps))
		ratio := srr.Comm / whp
		if ratio <= 1 {
			if prevN == 0 || prevRatio <= 1 {
				return float64(n)
			}
			// Geometric interpolation on (log n, log ratio).
			f := math.Log(prevRatio) / (math.Log(prevRatio) - math.Log(ratio))
			return float64(prevN) * math.Pow(float64(n)/float64(prevN), f)
		}
		prevN, prevRatio = n, ratio
	}
	return 0
}

func fig5(opt Options) (*Result, error) {
	base := machine.DefaultNet()
	mc := Calibrate(base, opt.Seed, opt.Workers())
	c := mc.Calib(defaultP)
	lats := latSweep
	if opt.Quick {
		lats = lats[:2]
	}
	ns := sweepPoints(opt, len(lats), func(i int, _ *obs.Recorder) float64 {
		net := base
		net.Latency = lats[i]
		return crossoverN(net, c, opt)
	})
	t := report.NewTable("Figure 5: crossover problem size vs latency l (p=16)",
		"l (cycles)", "crossover n", "n per unit l")
	for i, l := range lats {
		n := ns[i]
		perL := ""
		if n > 0 {
			perL = report.F(n / float64(l))
		}
		cell := "not reached"
		if n > 0 {
			cell = report.Cycles(n)
		}
		t.AddRow(report.Cycles(float64(l)), cell, perL)
	}
	t.AddNote("expected shape: crossover n grows roughly linearly in l (constant n-per-unit-l at large l).")
	return &Result{ID: "fig5", Title: Title("fig5"), Tables: []*report.Table{t}}, nil
}

func fig6(opt Options) (*Result, error) {
	base := machine.DefaultNet()
	mc := Calibrate(base, opt.Seed, opt.Workers())
	c := mc.Calib(defaultP)
	ovhs := ovhSweep
	if opt.Quick {
		ovhs = ovhs[:2]
	}
	ns := sweepPoints(opt, len(ovhs), func(i int, _ *obs.Recorder) float64 {
		net := base
		net.SendOverhead = ovhs[i]
		net.RecvOverhead = ovhs[i]
		return crossoverN(net, c, opt)
	})
	t := report.NewTable("Figure 6: crossover problem size vs per-message overhead o (p=16)",
		"o (cycles)", "crossover n", "n per unit o")
	for i, o := range ovhs {
		n := ns[i]
		perO := ""
		if n > 0 {
			perO = report.F(n / float64(o))
		}
		cell := "not reached"
		if n > 0 {
			cell = report.Cycles(n)
		}
		t.AddRow(report.Cycles(float64(o)), cell, perO)
	}
	t.AddNote("expected shape: crossover n grows roughly linearly in o.")
	return &Result{ID: "fig6", Title: Title("fig6"), Tables: []*report.Table{t}}, nil
}
