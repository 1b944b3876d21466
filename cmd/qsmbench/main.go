// Command qsmbench runs the paper's experiments by id and prints their
// tables (or CSV).
//
// Usage:
//
//	qsmbench -list
//	qsmbench -exp fig2 [-runs 10] [-seed 1] [-csv] [-quick] [-parallel 8]
//	qsmbench -all -json .          # also emit BENCH_<id>.json perf records
//	qsmbench -cache DIR -exp fig2  # memoize results in a local store
//	qsmbench -server URL -exp fig2 # submit to a qsmd server and poll
//
// Independent (sweep-point, run) simulations fan out across -parallel
// worker goroutines (default GOMAXPROCS); tables are byte-identical to a
// serial run at the same seed. With -json PATH each experiment's wall time,
// simulated-event throughput, and allocation counters are recorded to
// BENCH_<id>.json files under the PATH directory, or to one combined JSON
// array if PATH ends in .json.
//
// Observability (internal/obs): -metrics aggregates each experiment's
// counters and histograms into METRICS_<id>.json (next to the BENCH records,
// or the current directory without -json); -trace DIR additionally collects
// sim-time spans and writes TRACE_<id>.json Chrome trace files under DIR,
// loadable in Perfetto. -progress logs per-sweep-point completion to stderr
// without perturbing the deterministic result tables.
//
// Profiling: -cpuprofile FILE and -memprofile FILE write pprof profiles of
// the whole invocation (the recipe behind the EXPERIMENTS.md perf
// trajectory): qsmbench -exp fig3 -quick -runs 1 -parallel 1 -cpuprofile
// cpu.prof, then go tool pprof -top cpu.prof.
//
// Caching: -cache DIR memoizes results in a content-addressed store (the
// same store cmd/qsmd serves from) keyed by experiment id, the
// deterministic options, and the code fingerprint — rerunning an identical
// invocation prints byte-identical tables from the cache without
// simulating. -server URL submits each experiment to a running qsmd
// instead of simulating locally, polling the job until it completes;
// repeated submissions hit the server's cache.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id to run (see -list)")
		all      = flag.Bool("all", false, "run every experiment")
		list     = flag.Bool("list", false, "list experiment ids")
		runs     = flag.Int("runs", 5, "repetitions per data point (paper uses 10)")
		seed     = flag.Int64("seed", 1, "random seed")
		quick    = flag.Bool("quick", false, "trim sweeps for a fast smoke run")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		parallel = flag.Int("parallel", 0, "simulation worker goroutines (0 = GOMAXPROCS)")
		jsonOut  = flag.String("json", "", "write BENCH_<id>.json perf records under this directory (or one combined file if it ends in .json)")
		metrics  = flag.Bool("metrics", false, "collect metrics and write METRICS_<id>.json per experiment")
		traceDir = flag.String("trace", "", "collect sim-time spans and write TRACE_<id>.json Chrome trace files under this directory")
		progress = flag.Bool("progress", false, "log per-sweep-point completion to stderr")
		cacheDir = flag.String("cache", "", "memoize results in this content-addressed store directory")
		server   = flag.String("server", "", "submit to a qsmd server at this URL instead of simulating locally")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write an allocation profile to this file when the invocation ends")
	)
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qsmbench: %v\n", err)
		os.Exit(1)
	}
	// Error exits below skip this: a failed run leaves no profile.
	defer stopProfiles()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-8s %s\n", id, experiments.Title(id))
		}
		return
	}
	ids := flag.Args()
	if *exp != "" {
		ids = append(ids, *exp)
	}
	if *all {
		ids = experiments.IDs()
	}
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "qsmbench: nothing to run; use -exp <id>, -all, or -list")
		os.Exit(2)
	}

	if *server != "" {
		for _, f := range []struct {
			set  bool
			name string
		}{
			{*csv, "-csv"}, {*metrics, "-metrics"}, {*traceDir != "", "-trace"},
			{*jsonOut != "", "-json"}, {*cacheDir != "", "-cache"},
		} {
			if f.set {
				fmt.Fprintf(os.Stderr, "qsmbench: %s is a local-run flag and cannot be combined with -server\n", f.name)
				os.Exit(2)
			}
		}
		if err := runRemote(*server, ids, *seed, *runs, *quick, *progress); err != nil {
			fmt.Fprintf(os.Stderr, "qsmbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var st *store.Store
	var fingerprint string
	if *cacheDir != "" {
		if *csv || *traceDir != "" {
			fmt.Fprintln(os.Stderr, "qsmbench: -cache stores rendered tables and metrics only; it cannot be combined with -csv or -trace")
			os.Exit(2)
		}
		var err error
		if st, err = store.Open(*cacheDir, 0); err != nil {
			fmt.Fprintf(os.Stderr, "qsmbench: %v\n", err)
			os.Exit(1)
		}
		fingerprint = store.Fingerprint()
	}

	effPar := *parallel
	if effPar <= 0 {
		effPar = runtime.GOMAXPROCS(0)
	}
	// METRICS files land next to the BENCH records (or in the current
	// directory); TRACE files go under their own directory since they can be
	// large.
	metricsDir := "."
	if *jsonOut != "" {
		if strings.HasSuffix(*jsonOut, ".json") {
			metricsDir = filepath.Dir(*jsonOut)
		} else {
			metricsDir = *jsonOut
		}
	}
	var recs []report.BenchRecord
	for _, id := range ids {
		opt := experiments.Options{Seed: *seed, Runs: *runs, Quick: *quick, Parallelism: *parallel}
		if *progress {
			opt.Progress = progressLogger(id)
		}

		if st != nil {
			rec, err := runCached(st, fingerprint, id, opt, *metrics, metricsDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "qsmbench: %v\n", err)
				os.Exit(1)
			}
			recs = append(recs, rec)
			continue
		}

		var sink *obs.Sink
		if *metrics || *traceDir != "" {
			sink = obs.NewSink(obs.Config{Metrics: *metrics, Trace: *traceDir != ""})
			opt.Obs = sink
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ev0 := sim.TotalEvents()
		t0 := time.Now()
		r, err := experiments.Run(id, opt)
		wall := time.Since(t0)
		ev1 := sim.TotalEvents()
		runtime.ReadMemStats(&m1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qsmbench: %v\n", err)
			os.Exit(1)
		}
		if *csv {
			for _, t := range r.Tables {
				fmt.Print(t.CSV())
			}
		} else {
			fmt.Print(r)
		}
		if sink != nil {
			merged := sink.Merged()
			if *metrics {
				f, err := report.WriteMetrics(metricsDir, id, merged)
				if err != nil {
					fmt.Fprintf(os.Stderr, "qsmbench: writing metrics: %v\n", err)
					os.Exit(1)
				}
				fmt.Printf("wrote %s\n", f)
			}
			if *traceDir != "" {
				f, err := report.WriteTrace(*traceDir, id, merged)
				if err != nil {
					fmt.Fprintf(os.Stderr, "qsmbench: writing trace: %v\n", err)
					os.Exit(1)
				}
				fmt.Printf("wrote %s (%d spans, %d dropped)\n", f, merged.Spans(), merged.DroppedSpans())
			}
		}
		rec := report.BenchRecord{
			ID:          id,
			Title:       experiments.Title(id),
			Seed:        *seed,
			Runs:        *runs,
			Quick:       *quick,
			Parallelism: effPar,
			WallSeconds: wall.Seconds(),
			SimEvents:   ev1 - ev0,
			AllocBytes:  m1.TotalAlloc - m0.TotalAlloc,
			Allocs:      m1.Mallocs - m0.Mallocs,
			Extra:       r.Extra,
		}
		rec.Finish()
		recs = append(recs, rec)
		fmt.Printf("[%s completed in %.1fs, %.2gM sim events, %.3g events/sec]\n\n",
			id, wall.Seconds(), float64(rec.SimEvents)/1e6, rec.EventsPerSec)
	}
	if *jsonOut != "" {
		files, err := report.WriteBench(*jsonOut, recs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qsmbench: writing bench records: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", strings.Join(files, ", "))
	}
}

// startProfiles begins CPU profiling to cpuPath and returns the function that
// ends it and writes the allocation profile to memPath; either may be empty.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "qsmbench: writing %s: %v\n", cpuPath, err)
			}
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qsmbench: %v\n", err)
			return
		}
		// "allocs" reports every allocation since start, not just the live
		// heap, which is what allocs/event work needs.
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintf(os.Stderr, "qsmbench: writing %s: %v\n", memPath, err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "qsmbench: writing %s: %v\n", memPath, err)
		}
	}, nil
}

// runCached serves one experiment through the content-addressed store:
// identical reruns print byte-identical tables from the cache without
// simulating, and concurrent identical invocations in one process share a
// single simulation.
func runCached(st *store.Store, fingerprint, id string, opt experiments.Options, metrics bool, metricsDir string) (report.BenchRecord, error) {
	key := store.ResultKey(id, opt.Key(), fingerprint)
	t0 := time.Now()
	entry, hit, err := st.GetOrCompute(key, func() (*store.Entry, error) {
		return computeEntry(fingerprint, key, id, opt, metrics)
	})
	if err != nil {
		return report.BenchRecord{}, err
	}
	fmt.Print(entry.Tables)
	if metrics && entry.Metrics != nil {
		f, err := report.WriteMetricsRaw(metricsDir, id, entry.Metrics)
		if err != nil {
			return report.BenchRecord{}, fmt.Errorf("writing metrics: %w", err)
		}
		fmt.Printf("wrote %s\n", f)
	}
	rec := report.BenchRecord{ID: id}
	if entry.Bench != nil {
		rec = *entry.Bench
	}
	if hit {
		fmt.Printf("[%s cache hit in %.3fs, key %s, original run %.1fs]\n\n",
			id, time.Since(t0).Seconds(), shortKey(key), rec.WallSeconds)
	} else {
		fmt.Printf("[%s completed in %.1fs, %.2gM sim events, %.3g events/sec; cached as %s]\n\n",
			id, rec.WallSeconds, float64(rec.SimEvents)/1e6, rec.EventsPerSec, shortKey(key))
	}
	return rec, nil
}

// computeEntry is the cache-miss path of runCached: run the experiment and
// package its tables, bench record, and (optionally) metrics as the store
// entry.
func computeEntry(fingerprint, key, id string, opt experiments.Options, metrics bool) (*store.Entry, error) {
	var sink *obs.Sink
	if metrics {
		sink = obs.NewSink(obs.Config{Metrics: true})
		opt.Obs = sink
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ev0 := sim.TotalEvents()
	t0 := time.Now()
	r, err := experiments.Run(id, opt)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0)
	ev1 := sim.TotalEvents()
	runtime.ReadMemStats(&m1)
	effPar := opt.Parallelism
	if effPar <= 0 {
		effPar = runtime.GOMAXPROCS(0)
	}
	bench := report.BenchRecord{
		ID:          id,
		Title:       experiments.Title(id),
		Seed:        opt.Seed,
		Runs:        opt.Runs,
		Quick:       opt.Quick,
		Parallelism: effPar,
		WallSeconds: wall.Seconds(),
		SimEvents:   ev1 - ev0,
		AllocBytes:  m1.TotalAlloc - m0.TotalAlloc,
		Allocs:      m1.Mallocs - m0.Mallocs,
		Extra:       r.Extra,
	}
	bench.Finish()
	entry := &store.Entry{
		Key:         key,
		Experiment:  id,
		Title:       r.Title,
		Options:     opt.Key(),
		Fingerprint: fingerprint,
		Tables:      r.String(),
		Bench:       &bench,
		CreatedAt:   time.Now().UTC(),
	}
	if sink != nil {
		if m, err := sink.Merged().AppendMetricsJSON(nil); err == nil {
			entry.Metrics = m
		}
	}
	return entry, nil
}

// runRemote submits each experiment to a qsmd server, polls the job to
// completion, and prints the cached tables. Each experiment runs under its
// own trace ID, propagated on every request (submit, polls, result fetch)
// so a -trace'd server stitches the whole conversation into one job trace.
func runRemote(baseURL string, ids []string, seed int64, runs int, quick, progress bool) error {
	c := &service.Client{BaseURL: baseURL}
	ctx := context.Background()
	for _, id := range ids {
		c.TraceID = obs.NewTraceID()
		js, err := c.Submit(ctx, service.SubmitRequest{Experiment: id, Seed: seed, Runs: runs, Quick: quick})
		if err != nil {
			return err
		}
		if js.State != service.StateDone && js.State != service.StateFailed {
			var onPoll func(service.JobStatus)
			if progress {
				var last int
				onPoll = func(p service.JobStatus) {
					if p.Progress.Done != last {
						last = p.Progress.Done
						fmt.Fprintf(os.Stderr, "qsmbench: %s: %s, %d jobs done (%.1fs elapsed)\n",
							id, p.ID, p.Progress.Done, p.ElapsedSeconds)
					}
				}
			}
			if js, err = c.Wait(ctx, js.ID, 200*time.Millisecond, onPoll); err != nil {
				return err
			}
		}
		if js.State == service.StateFailed {
			return fmt.Errorf("%s: job %s failed: %s", id, js.ID, js.Error)
		}
		entry, err := c.Result(ctx, js.ResultKey)
		if err != nil {
			return err
		}
		fmt.Print(entry.Tables)
		served := "computed by server"
		if js.Cached {
			served = "server cache hit"
		}
		fmt.Printf("[%s %s in %.1fs, key %s, trace %s]\n\n", id, served, js.ElapsedSeconds, shortKey(js.ResultKey), c.TraceID)
	}
	return nil
}

func shortKey(k string) string {
	if len(k) > 12 {
		return k[:12] + "…"
	}
	return k
}

// progressLogger returns an experiments.Progress callback that logs each
// sweep point's completion (its final run) to stderr. The callback runs on
// worker goroutines, so it serialises writes with a mutex; it only observes
// the sweep, never its results, so tables stay byte-identical.
func progressLogger(id string) func(experiments.Progress) {
	var mu sync.Mutex
	return func(p experiments.Progress) {
		if p.RunsDone != p.Runs {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(os.Stderr, "qsmbench: %s: point %d/%d done (%d runs, %.1fs elapsed)\n",
			id, p.Point+1, p.Points, p.Runs, p.Elapsed.Seconds())
	}
}
