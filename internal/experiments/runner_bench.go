package experiments

import (
	"runtime"
	"time"

	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/sim"
)

func init() {
	register("runner", "Runner: work-stealing vs fixed-pool scheduling on skewed sweeps", runnerBench)
}

// runnerShapes are the job-cost distributions BENCH_runner.json tracks: the
// shapes that separate a work-stealing scheduler from a fixed pool. Costs
// are in ticker iterations; jobs are listed in submission order, which for
// a monotone sweep is ascending problem size — exactly the order that
// parks a fixed pool's workers behind the late giants.
type runnerShape struct {
	name  string
	costs func(c int) []int
}

var runnerShapes = []runnerShape{
	// Every job identical: the null case. Stealing must not lose here.
	{"uniform", func(c int) []int {
		costs := make([]int, 64)
		for i := range costs {
			costs[i] = c
		}
		return costs
	}},
	// 48 small jobs then one 16× giant last — the classic tail: a fixed
	// pool discovers the giant only after burning the small jobs.
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
// order, each to the earliest-free worker. This is exactly the fixed pool's
// schedule (workers claim the next submission-order index when free); fed
// the cost-descending order instead, it is LPT — the schedule the stealing
// pool converges to under cost-hinted seeding, since an idle worker always
// finds the pending work. The returned makespan is in cost units, a
// machine-independent pure function of the workload.
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

// descending returns costs sorted descending without mutating the input.
func descending(costs []int) []int {
	out := append([]int(nil), costs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] > out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
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
// benchmark (ROADMAP item 2). Its table pins the deterministic side — per-
// shape sim events plus the schedule-model makespans of the fixed pool vs
// LPT/stealing at 4 and 8 workers, pure functions of the cost vectors — so
// the speedup the deques buy on skewed shapes is committed and gated
// (scripts/perfcheck.py fails if any model_speedup_* drifts or drops below
// the floor). The stealing pool then runs each job set once at par=4 — it
// produces the record's sim events — and its wall clock and steal count
// land in the BENCH extra map under measured_*: observations of the machine
// the bench ran on, not gated.
func runnerBench(opt Options) (*Result, error) {
	c := 60000
	if opt.Quick {
		c = 4000
	}
	t := report.NewTable("Runner: fixed pool vs work stealing (schedule-model makespans, cost units)",
		"shape", "jobs", "total cost", "sim events",
		"fixed@4", "steal@4", "speedup@4", "speedup@8")
	extra := map[string]float64{}
	for _, sh := range runnerShapes {
		costs := sh.costs(c)
		total := 0
		for _, x := range costs {
			total += x
		}
		desc := descending(costs)

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

		// Measured side: run the job set through the stealing pool at par=4.
		// Wall clock and steals are nondeterministic, so they stay out of
		// the table; they land in BENCH extra for the perf trajectory.
		before := sched.Totals()
		t0 := time.Now()
		stealEv := parMapCost(4, len(costs), func(i int) float64 { return float64(costs[i]) },
			"bench:"+sh.name, func(i int) uint64 { return runnerJob(costs[i]) })
		stealWall := time.Since(t0)
		after := sched.Totals()

		var events uint64
		for _, ev := range stealEv {
			events += ev
		}
		extra["measured_steal_ms_"+sh.name] = float64(stealWall.Milliseconds())
		extra["measured_steals_"+sh.name] = float64(after.Steals - before.Steals)

		t.AddRow(sh.name,
			report.I(float64(len(costs))), report.I(float64(total)), report.I(float64(events)),
			report.I(f4), report.I(s4),
			report.F(f4/s4), report.F(f8/s8))
	}
	extra["measured_gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	t.AddNote("makespans are greedy list schedules of the cost vectors (submission order = fixed pool; descending = LPT, the stealing pool's seeded order) — machine-independent; the stealing pool's measured wall clock and steal count are in BENCH_runner.json extra.*")
	return &Result{ID: "runner", Title: Title("runner"), Tables: []*report.Table{t}, Extra: extra}, nil
}
