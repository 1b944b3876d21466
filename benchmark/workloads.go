package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// workload is one row of the benchmark. Work is a fixed count, never a fixed
// duration: warm, timed and segs are the counts for a 10-second run on the
// box the benchmark was sized on, and scale with -seconds (and with -quick,
// and by 1/5 in the traced replay), so two commits compared at the same
// -seconds do identical work and their peak_rss_mb is comparable.
type workload struct {
	name string
	why  string

	warm  int // warm-up units per set-up round
	timed int // units in the timed window
	segs  int // equal-work segments work_per_s is the median over

	// sim-* only: the experiment driver one unit regenerates.
	exp      string
	expQuick bool

	// serve-*/cluster-* only.
	nodes int  // 1, or 3 for the cluster
	keys  int  // distinct cached keys; 0 means every op is a never-seen key
	cold  bool // ops wait for a simulation over SSE
}

var workloads = []workload{
	{name: "sim-sort", warm: 2, timed: 16, segs: 16, exp: "fig2",
		why: "full sample-sort sweep: few phases of bulk puts through qsmlib queueing, the msg/machine NIC model and goroutine sim.Procs; no membank, store or service"},
	{name: "sim-rank", warm: 1, timed: 6, segs: 6, exp: "fig3", expQuick: true,
		why: "list-ranking sweep: the same layers as sim-sort used the other way, many small phases of gets, sync-dominated and allocation-heavy, so a put-path gain that costs gets shows"},
	{name: "sim-banks", warm: 60, timed: 600, segs: 40, exp: "fig7",
		why: "bank-contention sweep: sim.StepProc engine core and membank only, bypassing qsmlib and msg, so it must not move when the figs 1-6 path changes"},
	{name: "serve-hit", warm: 2000, timed: 36000, segs: 40, nodes: 1, keys: 32,
		why: "32 cached keys over HTTP: decode/encode, Scheduler.Submit hit path, job registration and store.Get memory hits do all the work; the simulator does none"},
	{name: "serve-cold", warm: 80, timed: 840, segs: 40, nodes: 1, cold: true,
		why: "every op a never-seen cheap fig7 job: admission queue, worker hand-off, work-stealing runner, metrics merge, store.Put, SSE stream and a 155 KB result encode"},
	{name: "cluster-hit", warm: 2000, timed: 36000, segs: 40, nodes: 3, keys: 32,
		why: "serve-hit through a 3-node ring, two thirds of submits forwarded to the owner: adds exactly the cluster layer, so a cluster change moves this and not serve-hit"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// setupRounds is how many times a run sets up from scratch; setup_s is the
// median round, so one slow round does not decide it.
const setupRounds = 3

// config is one child run.
type config struct {
	w       workload
	seed    int64
	seconds int
	quick   bool
	traced  bool
	scratch string // where the run's temporary directory is made
	tmp     string // that directory: store files, removed on exit
	out     string // where trace-<workload>.json lands
}

// scale is the factor applied to every work constant.
func (c config) scale() float64 {
	s := float64(c.seconds) / 10
	if c.quick {
		s /= 20
	}
	return s
}

// rounds is how many times the child sets up: once in the traced child,
// which does not report setup_s, and in smoke runs.
func (c config) rounds() int {
	if c.traced || c.quick {
		return 1
	}
	return setupRounds
}

// sized scales the workload's counts by f, keeping at least one timed unit
// and a whole number of equal segments.
func (w workload) sized(f float64) workload {
	n := func(v int) int { return int(math.Round(float64(v) * f)) }
	w.warm = n(w.warm)
	w.timed = max(1, n(w.timed))
	w.segs = min(w.segs, w.timed)
	w.timed -= w.timed % w.segs
	return w
}

func (w workload) segSize() int { return w.timed / w.segs }

// outcome is what one phase (set-up rounds + a window of units) produced.
type outcome struct {
	attempted int
	failed    int
	setupS    float64
	lat       []float64          // wall ms of each unit of the window
	done      []time.Duration    // completion time of each unit since window start
	note      string             // printed beside the metrics: table hash, sample counts
	layer     map[string]float64 // traced child: per-layer metrics by name
	tr        *tracer            // traced child: the spans behind them
}

func (o *outcome) latP50() float64 { return percentile(o.lat, 50) }

func hashTables(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// simUnit regenerates one figure and returns the SHA-256 of its tables.
func simUnit(w workload, seed int64, sink *obs.Sink, progress func(experiments.Progress)) (string, error) {
	res, err := experiments.Run(w.exp, experiments.Options{
		Seed: seed, Runs: 1, Quick: w.expQuick, Parallelism: 1, Obs: sink, Progress: progress,
	})
	if err != nil {
		return "", err
	}
	return hashTables(res.String()), nil
}

// simObserved is what the traced replay reads off one unit.
type simObserved struct {
	events, syncs, words uint64
	mallocs, bytes       uint64
	jobMS                []float64
}

// simWindow runs n units and verifies each against want (the first unit's
// hash when want is empty). With tr set it also collects the per-unit
// observations the experiments.* and qsmlib.* layer metrics are made of.
func simWindow(ctx context.Context, w workload, seed int64, n int, want string, tr *tracer) (outcome, string, []simObserved) {
	var o outcome
	var obsd []simObserved
	start := time.Now()
	for u := 0; u < n && ctx.Err() == nil; u++ {
		var (
			sink     *obs.Sink
			progress func(experiments.Progress)
			so       simObserved
			ms0      runtime.MemStats
			last     time.Time
		)
		if tr != nil {
			sink = obs.NewSink(obs.Config{Metrics: true})
			last = time.Now()
			// At Parallelism 1 jobs complete one after another, so a job's
			// duration is the gap since the previous callback, or the sweep's
			// own clock for the first job of a sweep.
			progress = func(p experiments.Progress) {
				now := time.Now()
				so.jobMS = append(so.jobMS, float64(min(p.Elapsed, now.Sub(last)))/float64(time.Millisecond))
				last = now
			}
			runtime.ReadMemStats(&ms0)
		}
		unit := tr.begin("benchmark", "unit", -1, u, 0)
		call := tr.begin("experiments", "experiments.Run "+w.exp, unit, u, 0)
		t0 := time.Now()
		got, err := simUnit(w, seed, sink, progress)
		el := time.Since(t0)
		tr.end(call)
		o.attempted++
		if want == "" && err == nil {
			want = got
		}
		if err != nil || got != want {
			o.failed++
		}
		if tr != nil {
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			so.mallocs, so.bytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
			m := sink.Merged()
			so.events = m.FindCounter("sim", "events", "").Value()
			so.syncs = m.FindCounter("qsmlib", "syncs", "").Value()
			for _, h := range []string{"phase_put_words", "phase_get_words"} {
				so.words += uint64(m.FindHistogram("qsmlib", h, "").Sum())
			}
			obsd = append(obsd, so)
		}
		tr.end(unit)
		o.lat = append(o.lat, float64(el)/float64(time.Millisecond))
		o.done = append(o.done, time.Since(start))
	}
	return o, want, obsd
}

// runSim is a sim-* child: set-up rounds of warm-up units, then the window.
func runSim(ctx context.Context, c config) (outcome, error) {
	w := c.w.sized(c.scale())
	var setups []float64
	want := ""
	for r := 0; r < c.rounds(); r++ {
		t0 := time.Now()
		var wo outcome
		wo, want, _ = simWindow(ctx, w, c.seed, w.warm, want, nil)
		if wo.failed > 0 {
			return outcome{}, fmt.Errorf("%s: warm-up unit failed or changed its tables", w.name)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if !c.traced {
		o, want, _ := simWindow(ctx, w, c.seed, w.timed, want, nil)
		o.setupS = median(setups)
		o.note = "tables sha256 " + want
		return o, ctx.Err()
	}

	// Traced child: a plain slice first, so the overhead of tracing is a
	// ratio of two medians taken in one process, then the traced replay.
	plain, want, _ := simWindow(ctx, w, c.seed, c.w.sized(c.scale()/10).timed, want, nil)
	tr := newTracer()
	o, want, obsd := simWindow(ctx, w, c.seed, c.w.sized(c.scale()/5).timed, want, tr)
	o.attempted += plain.attempted
	o.failed += plain.failed
	o.note = "tables sha256 " + want
	o.layer = map[string]float64{"trace.overhead_share": o.latP50()/plain.latP50() - 1}
	if len(obsd) > 0 {
		first := obsd[0]
		var nsPerEv, jobs []float64
		for i, so := range obsd {
			// A deterministic simulator repeats its counts exactly.
			if so.events != first.events {
				o.failed++
			}
			if so.events > 0 {
				nsPerEv = append(nsPerEv, o.lat[i]*1e6/float64(so.events))
			}
			jobs = append(jobs, so.jobMS...)
		}
		ev := math.Max(1, float64(first.events))
		o.layer["experiments.unit_events"] = float64(first.events)
		o.layer["experiments.host_ns_per_event"] = median(nsPerEv)
		o.layer["experiments.allocs_per_event"] = float64(first.mallocs) / ev
		o.layer["experiments.alloc_bytes_per_event"] = float64(first.bytes) / ev
		o.layer["experiments.job_ms_p50"] = percentile(jobs, 50)
		o.layer["experiments.job_ms_max"] = percentile(jobs, 100)
		o.layer["qsmlib.phases_per_unit"] = float64(first.syncs)
		o.layer["qsmlib.words_per_unit"] = float64(first.words)
		o.note += fmt.Sprintf(", %d events/unit", first.events)
	}
	o.tr = tr
	return o, ctx.Err()
}
