// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver runs the relevant workloads on the
// simulated machine (or the membank model for Section 4), computes the
// analytical prediction lines, and renders the same rows or series the
// paper reports. cmd/qsmbench exposes them on the command line and the
// top-level bench_test.go wires them into `go test -bench`.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/report"
)

// Options control an experiment run.
type Options struct {
	// Seed drives all randomness; runs r uses Seed+r.
	Seed int64
	// Runs is the number of repetitions averaged per point (the paper uses
	// 10). Zero means 5.
	Runs int
	// Quick trims sweeps to a few points for smoke tests.
	Quick bool
	// Parallelism is the number of workers the runner fans independent
	// (sweep-point, run) simulations across. Zero means GOMAXPROCS; 1
	// forces the serial path. Results are merged in deterministic
	// (point, run) order, so output is byte-identical at any setting.
	Parallelism int
	// Obs collects metrics and trace spans from the instrumented sweeps.
	// Each (point, run) job records into its own obs.Recorder drawn from the
	// sink, so collection is safe and deterministic at any Parallelism;
	// Obs.Merged() after Run folds them in job order. Nil disables
	// collection entirely.
	Obs *obs.Sink
	// Progress, when non-nil, is called after every completed (point, run)
	// job with the sweep's progress so far. It may be called concurrently
	// from worker goroutines; the callback must be safe for that.
	Progress func(Progress)
	// Context, when non-nil, cancels an in-progress experiment: the runner
	// checks it before starting each (point, run) job, and Run returns the
	// context's error instead of a Result. Already-started simulations run
	// to completion; cancellation takes effect at job granularity.
	Context context.Context
	// Wall, when non-nil, receives one wall-clock span per (point, run) job
	// on the "runner" layer row, tagged with TraceID — this is how serving-
	// stack traces attribute real time to individual sweep points. Nil (the
	// default) records nothing and costs nothing.
	Wall *obs.WallTracer
	// TraceID tags the Wall spans; empty spans are still recorded but cannot
	// be filtered into a per-request trace.
	TraceID string
}

// Progress reports one completed job of a sweep.
type Progress struct {
	Point    int           // sweep-point index within the current sweep
	Points   int           // total sweep points
	RunsDone int           // completed runs of this point, including this one
	Runs     int           // total runs per point
	Elapsed  time.Duration // wall time since the sweep started
}

func (o Options) runs() int {
	if o.Runs <= 0 {
		return 5
	}
	return o.Runs
}

// Workers returns the number of simulation workers a run uses:
// Parallelism, or GOMAXPROCS when that is not positive.
func (o Options) Workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) ctxErr() error {
	if o.Context == nil {
		return nil
	}
	return o.Context.Err()
}

// OptionsKey is the plain-data view of Options a result cache may key on:
// exactly the fields that determine an experiment's output. Execution-shape
// fields are deliberately excluded — Progress, Obs, and Context cannot be
// encoded, and Parallelism must not be (tables are byte-identical at any
// setting). TestOptionsKeyCoversOptions pins both the canonical JSON and the
// keyed/excluded field partition, so adding a field to Options without
// deciding its cache behaviour is a test failure, not silent key drift.
type OptionsKey struct {
	Seed  int64 `json:"seed"`
	Runs  int   `json:"runs"`
	Quick bool  `json:"quick"`
}

// Key returns the cache-keyable view of o. Runs is normalised through the
// same default the runner applies, so Options{} and Options{Runs: 5} key
// identically.
func (o Options) Key() OptionsKey {
	return OptionsKey{Seed: o.Seed, Runs: o.runs(), Quick: o.Quick}
}

// Options reconstructs an Options carrying exactly the keyed fields.
func (k OptionsKey) Options() Options {
	return Options{Seed: k.Seed, Runs: k.Runs, Quick: k.Quick}
}

// Result is an experiment's output.
type Result struct {
	ID     string
	Title  string
	Tables []*report.Table
	// Extra carries driver-specific named values into the BenchRecord the
	// harness wraps around the run (see report.BenchRecord.Extra). Unlike
	// Tables it may hold wall-clock measurements; drivers must keep
	// anything nondeterministic out of Tables.
	Extra map[string]float64
}

// String renders all tables.
func (r *Result) String() string {
	s := ""
	for _, t := range r.Tables {
		s += t.String() + "\n"
	}
	return s
}

type driver struct {
	title string
	run   func(Options) (*Result, error)
}

var registry = map[string]driver{}

func register(id, title string, run func(Options) (*Result, error)) {
	registry[id] = driver{title: title, run: run}
}

// Register adds an experiment driver under id. The paper's drivers ship
// registered at init time; the hook is exported so embedding code and tests
// can serve custom experiments through the same runner, cache, and service
// tooling. Registering a duplicate id panics.
func Register(id, title string, run func(Options) (*Result, error)) {
	if _, dup := registry[id]; dup {
		panic(fmt.Sprintf("experiments: duplicate registration of %q", id))
	}
	register(id, title, run)
}

// Known reports whether id names a registered experiment.
func Known(id string) bool {
	_, ok := registry[id]
	return ok
}

// IDs lists the registered experiment identifiers in order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns an experiment's description.
func Title(id string) string { return registry[id].title }

// Run executes the experiment with the given id. If opt.Context is
// cancelled mid-sweep, the unwind is caught here and Run returns the
// context's error.
func Run(id string, opt Options) (res *Result, err error) {
	d, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if c, ok := cancelCause(r); ok {
			res, err = nil, c
			return
		}
		panic(r)
	}()
	return d.run(opt)
}
