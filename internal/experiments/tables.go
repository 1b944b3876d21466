package experiments

import (
	"math"

	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/membank"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/report"
)

func init() {
	register("table2", "Table 2: node architecture model validation (analytic vs detailed core)", table2)
	register("table3", "Table 3: raw hardware vs observed network performance", table3)
	register("table4", "Table 4: extrapolated minimum problem size across architectures", table4)
	register("fig7", "Figure 7: remote memory bank contention across architectures", fig7)
}

func table2(opt Options) (*Result, error) {
	p := cpu.Table2()
	cfg := report.NewTable("Table 2: node architecture parameters",
		"parameter", "setting")
	cfg.AddRow("functional units", "4 int / 4 FPU / 2 load-store")
	cfg.AddRow("issue width / window", "4 / 64")
	cfg.AddRow("L1", "8KB 2-way, 1 cycle")
	cfg.AddRow("L2", "256KB 8-way, 3 cycles (miss 3+7)")
	cfg.AddRow("branch predictor", "64K entries, 8-bit history")
	cfg.AddRow("clock", "400 MHz")

	val := report.NewTable("Node model validation: analytic vs detailed cycles per kernel",
		"kernel", "analytic", "detailed", "detailed/analytic")
	an := cpu.NewAnalytic(p)
	kernels := []struct {
		name string
		b    cpu.OpBlock
	}{
		{"sum(50k)", cpu.BlockSum(50000)},
		{"prefix(50k)", cpu.BlockPrefixSum(50000)},
		{"copy(50k)", cpu.BlockCopy(50000)},
		{"quicksort(20k)", cpu.BlockQuickSort(20000)},
		{"bucketize(20k,16)", cpu.BlockBucketize(20000, 16)},
		{"list-traverse(20k)", cpu.BlockListTraverse(20000)},
		{"flip-gen(50k)", cpu.BlockFlipGenerate(50000)},
		{"compact(50k)", cpu.BlockCompact(50000)},
	}
	// Each kernel's trace-driven run builds its own detailed core, so the
	// validations fan across the pool.
	type pair struct{ ca, cd float64 }
	vs := sweepPoints(opt, len(kernels), func(i int, _ *obs.Recorder) pair {
		det := cpu.NewDetailedModel(p, 200000, opt.Seed+1)
		return pair{float64(an.Cycles(kernels[i].b)), float64(det.Cycles(kernels[i].b))}
	})
	for i, k := range kernels {
		val.AddRow(k.name, report.Cycles(vs[i].ca), report.Cycles(vs[i].cd), report.F(vs[i].cd/vs[i].ca))
	}
	val.AddNote("experiment sweeps use the analytic model; the detailed trace-driven core bounds its error.")
	return &Result{ID: "table2", Title: Title("table2"), Tables: []*report.Table{cfg, val}}, nil
}

func table3(opt Options) (*Result, error) {
	net := machine.DefaultNet()
	mc := Calibrate(net, opt.Seed, opt.Workers())
	t := report.NewTable("Table 3: raw hardware vs observed (hardware + software) network performance",
		"parameter", "hardware setting", "observed (HW+SW)")
	t.AddRow("gap g (bandwidth)", "3 cycles/byte (133 MB/s)",
		report.F(mc.PutGapPB)+" c/B (put), "+report.F(mc.GetGapPB)+" c/B (bulk get), "+
			report.F(mc.GetWordGapPB)+" c/B (word-grain get)")
	t.AddRow("per-message overhead o", "400 cycles (1 us)", "N/A (hidden by bulk interface)")
	t.AddRow("latency l", "1600 cycles (4 us)", "N/A (hidden by bulk interface)")
	t.AddRow("sync/barrier L", "N/A", report.Cycles(mc.LBarrier)+" cycles (16 nodes)")
	t.AddNote("paper's observed values: 35 c/B put, 287 c/B get, L = 25500 cycles; software copies and headers inflate the 3 c/B hardware gap an order of magnitude.")
	return &Result{ID: "table3", Title: Title("table3"), Tables: []*report.Table{t}}, nil
}

// arch is a Table 4 architecture row (parameters in cycles, per the paper).
type arch struct {
	name     string
	p        int
	l, o     float64
	gPerByte float64
	paperVal string // the paper's reported n_min/p (with its software factor k)
}

func table4(opt Options) (*Result, error) {
	archs := []arch{
		{"Default simulation parameters", 16, 1600, 400, 3, "8000"},
		{"Berkeley NOW", 32, 830, 481, 4.3, "k * 4640"},
		{"300MHz PII TCP/IP 100Mb Ethernet", 32, 75000, 150000, 24, "k * 325000"},
		{"Cray T3E", 64, 126, 50, 1.6, "k * 1558"},
		{"Intel Paragon", 64, 325, 90, 0.35, "k * 15429"},
		{"Meico CS-2", 32, 497, 112, 1.4, "k * 5325"},
	}

	// The extrapolation model: the per-run fixed communication cost a QSM
	// analysis omits is SortPhases per-phase costs, each roughly a barrier
	// (2(p-1) messages through the root) plus one latency:
	// fixed = phases * (2*o*(p-1) + 2*l). QSM predicts accurately once this
	// fixed cost is under 10% of the bandwidth term g*B*(1+r) ~ 2*g*8*n/p.
	// kCal normalises the software-implementation factor so the default row
	// reproduces the paper's n_min/p = 8000.
	nMin := func(a arch) float64 {
		fixed := models.SortPhases * (2*a.o*float64(a.p-1) + 2*a.l)
		perElem := 2 * a.gPerByte * 8 / float64(a.p) // cycles per element of bucket traffic
		return fixed / (0.1 * perElem)               // n at which fixed = 10% of g-term
	}
	def := archs[0]
	kCal := 8000 / (nMin(def) / float64(def.p))

	vals := sweepPoints(opt, len(archs), func(i int, _ *obs.Recorder) float64 {
		return kCal * nMin(archs[i]) / float64(archs[i].p)
	})
	t := report.NewTable("Table 4: predicted minimum problem size for accurate QSM prediction (sample sort)",
		"architecture", "p", "l", "o", "g (c/B)", "n_min/p (ours)", "n_min/p (paper)")
	for i, a := range archs {
		t.AddRow(a.name, report.I(float64(a.p)), report.I(a.l), report.I(a.o),
			report.F(a.gPerByte), report.Cycles(math.Round(vals[i])), a.paperVal)
	}
	t.AddNote("ours is normalised to the default row; the paper's k absorbs per-architecture software costs, so compare orderings and magnitudes, not exact values.")
	return &Result{ID: "table4", Title: Title("table4"), Tables: []*report.Table{t}}, nil
}

func fig7(opt Options) (*Result, error) {
	accesses := 500
	if opt.Quick {
		accesses = 150
	}
	cfgs := membank.AllConfigs()
	// One job per architecture; each runs its three access patterns on its
	// own simulated memory system.
	results := sweepPoints(opt, len(cfgs), func(i int, rec *obs.Recorder) []membank.Result {
		return membank.RunAllObserved(cfgs[i], accesses, opt.Seed, rec)
	})
	t := report.NewTable("Figure 7: remote memory access time under load (us per access)",
		"architecture", "Random", "Conflict", "NoConflict", "Conflict/NoConflict", "Random/NoConflict")
	for i, cfg := range cfgs {
		var rnd, cf, nc membank.Result
		for _, r := range results[i] {
			switch r.Pattern {
			case membank.Random:
				rnd = r
			case membank.Conflict:
				cf = r
			case membank.NoConflict:
				nc = r
			}
		}
		t.AddRow(cfg.Name,
			report.F(rnd.AvgMicros()), report.F(cf.AvgMicros()), report.F(nc.AvgMicros()),
			report.F(cf.AvgCycles/nc.AvgCycles), report.F(rnd.AvgCycles/nc.AvgCycles))
	}
	t.AddNote("paper's shape: NoConflict beats Random by 0-68%%; Conflict is generally 2-4x worse than NoConflict (except where a shared medium saturates first, as on the Ethernet NOW).")
	return &Result{ID: "fig7", Title: Title("fig7"), Tables: []*report.Table{t}}, nil
}
