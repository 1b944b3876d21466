package experiments

import (
	"cmp"
	"runtime"
	"slices"
	"time"

	"repro/internal/report"
	"repro/internal/sim"
)

func init() {
	register("runner", "Runner: submission order vs LPT scheduling on skewed sweeps", runnerBench)
}

// runnerShapes are the job-cost distributions BENCH_runner.json tracks: the
// shapes that separate LPT claiming from claiming in submission order. Costs
// are in ticker iterations; jobs are listed in submission order, which for
// a monotone sweep is ascending problem size — exactly the order that
// leaves a submission-order pool's workers idle behind the late giants.
type runnerShape struct {
	name  string
	costs func(c int) []int
}

var runnerShapes = []runnerShape{
	// Every job identical: the null case. LPT must not lose here.
	{"uniform", func(c int) []int {
		costs := make([]int, 64)
		for i := range costs {
			costs[i] = c
		}
		return costs
	}},
	// 48 small jobs then one 16× giant last — the classic tail: submission
	// order discovers the giant only after burning the small jobs.
	{"one-giant", func(c int) []int {
		costs := make([]int, 49)
		for i := 0; i < 48; i++ {
			costs[i] = c
		}
		costs[48] = 16 * c
		return costs
	}},
	// Zipf(1.0) costs in ascending order: job k of 64 costs ∝ 1/(64-k),
	// the long-tailed size distribution of the Figure 4–7 sweeps with the
	// expensive points at the end where monotone sweeps put them.
	{"zipf-cost", func(c int) []int {
		costs := make([]int, 64)
		for i := range costs {
			costs[i] = c / (len(costs) - i)
			if costs[i] < 1 {
				costs[i] = 1
			}
		}
		return costs
	}},
}

// modelMakespan is greedy list scheduling: jobs are handed out in the given
// order, each to the earliest-free worker. Fed submission order, it is the
// schedule of a pool without a cost hint; fed the cost-descending order, it
// is LPT — exactly the schedule sched.Map runs under a cost hint, whose
// workers claim the next index of that order as they come free. The
// returned makespan is in cost units, a machine-independent pure function
// of the workload.
func modelMakespan(costs []int, p int) float64 {
	free := make([]float64, p)
	for _, c := range costs {
		w := 0
		for i := 1; i < p; i++ {
			if free[i] < free[w] {
				w = i
			}
		}
		free[w] += float64(c)
	}
	m := 0.0
	for _, f := range free {
		if f > m {
			m = f
		}
	}
	return m
}

// runnerJob burns exactly iters ticker events on a private engine — the
// same unit of work at every parallelism, so wall time per job is
// proportional to its cost.
func runnerJob(iters int) uint64 {
	e := sim.NewEngine()
	i := 0
	e.SpawnStep("job", func(sp *sim.StepProc) sim.Status {
		if i == iters {
			return sim.StepDone
		}
		i++
		return sp.Sleep(1)
	})
	mustRun(e)
	return e.Events()
}

// runnerBench is the "runner" pseudo-experiment: the scheduler's own
// benchmark. Its table pins the deterministic side — per-shape sim events
// plus the schedule-model makespans of submission order vs LPT at 4 and 8
// workers, pure functions of the cost vectors — so the speedup the cost
// hint buys on skewed shapes is committed and gated (scripts/perfcheck.py
// fails if any model_speedup_* drifts or drops below the floor). The pool
// then runs each job set once at par=4 in LPT order — it produces the
// record's sim events — and its wall clock lands in the BENCH extra map
// under measured_ms_*: an observation of the machine the bench ran on, not
// gated.
func runnerBench(opt Options) (*Result, error) {
	c := 60000
	if opt.Quick {
		c = 4000
	}
	t := report.NewTable("Runner: submission order vs LPT (schedule-model makespans, cost units)",
		"shape", "jobs", "total cost", "sim events",
		"fixed@4", "lpt@4", "speedup@4", "speedup@8")
	extra := map[string]float64{}
	for _, sh := range runnerShapes {
		costs := sh.costs(c)
		total := 0
		for _, x := range costs {
			total += x
		}
		desc := slices.Clone(costs)
		slices.SortFunc(desc, func(a, b int) int { return cmp.Compare(b, a) })

		// Deterministic side: the schedule model.
		f4 := modelMakespan(costs, 4)
		s4 := modelMakespan(desc, 4)
		f8 := modelMakespan(costs, 8)
		s8 := modelMakespan(desc, 8)
		// Uniform is a parity check (speedup 1.0 by construction), so it is
		// exact-matched but excluded from the ≥ min-speedup gate; the skewed
		// shapes carry the gated model_speedup keys.
		prefix := "model_speedup_"
		if sh.name == "uniform" {
			prefix = "model_parity_"
		}
		extra[prefix+"p4_"+sh.name] = f4 / s4
		extra[prefix+"p8_"+sh.name] = f8 / s8

		// Measured side: run the job set through the pool at par=4 in LPT
		// order. Wall clock is nondeterministic, so it stays out of the
		// table; it lands in BENCH extra for the perf trajectory.
		t0 := time.Now()
		evs := parMapCost(4, len(costs), func(i int) float64 { return float64(costs[i]) },
			func(i int) uint64 { return runnerJob(costs[i]) })
		wall := time.Since(t0)

		var events uint64
		for _, ev := range evs {
			events += ev
		}
		extra["measured_ms_"+sh.name] = float64(wall.Milliseconds())

		t.AddRow(sh.name,
			report.I(float64(len(costs))), report.I(float64(total)), report.I(float64(events)),
			report.I(f4), report.I(s4),
			report.F(f4/s4), report.F(f8/s8))
	}
	extra["measured_gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	t.AddNote("makespans are greedy list schedules of the cost vectors (fixed = submission order; lpt = descending cost, the order the pool claims jobs in under a cost hint) — machine-independent; the pool's measured wall clock is in BENCH_runner.json extra.measured_ms_*")
	return &Result{ID: "runner", Title: Title("runner"), Tables: []*report.Table{t}, Extra: extra}, nil
}
