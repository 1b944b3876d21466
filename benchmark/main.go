// Command benchmark is the repo's benchmark: six fixed-work workloads over
// the simulator and the serving stack, four end-to-end metrics each, and a
// traced run that reports every layer. BENCHMARK.json at the repo root names
// the command and the metrics; README.md here explains both.
//
//	go run ./benchmark                                   all six workloads, timed then traced
//	go run ./benchmark -workload sim-sort -seed 3 -trace 0   one timed child (the driver's form)
//	go run ./benchmark -selfcheck                        two interleaved sets of five runs, compared
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// buildDir is the one place the benchmark writes: store directories (removed
// on exit) and, by default, the traced run's output. The root .gitignore
// names it.
const buildDir = ".bench_build"

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type boundedMetric struct {
	metricDef
	Bound float64 `json:"bound"`
}

// endToEnd are the metrics a timed child prints; bound is the relative
// worsening that counts as a regression. Each bound is the smallest multiple
// of 0.05 that is more than three times the widest spread (interquartile
// range over median, ten runs, any workload) measured for the metric on the
// box the benchmark was sized on; see README.md for the measurements.
var endToEnd = []boundedMetric{
	{metricDef{"setup_s", "s", "lower"}, 0.25},
	{metricDef{"work_per_s", "1/s", "higher"}, 0.20},
	{metricDef{"lat_p50_ms", "ms", "lower"}, 0.15},
	{metricDef{"peak_rss_mb", "MB", "lower"}, 0.15},
}

// perLayer are the metrics a traced child prints, in layer order. A metric
// reads 0 on a workload that never enters its layer.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"experiments.unit_events", "count", "lower"},
		{"experiments.host_ns_per_event", "ns/event", "lower"},
		{"experiments.allocs_per_event", "allocs/event", "lower"},
		{"experiments.alloc_bytes_per_event", "B/event", "lower"},
		{"experiments.calibrate_ms", "ms", "lower"},
		{"experiments.job_ms_p50", "ms", "lower"},
		{"experiments.job_ms_max", "ms", "lower"},
	}
	for _, id := range ledgerIDs {
		defs = append(defs, metricDef{"experiments.quick_ms." + id, "ms", "lower"})
	}
	return append(defs, []metricDef{
		{"sim.step_ns_per_event", "ns/event", "lower"},
		{"sim.goproc_ns_per_event", "ns/event", "lower"},
		{"sim.chan_ns_per_msg", "ns/msg", "lower"},
		{"membank.ns_per_access.random", "ns/access", "lower"},
		{"membank.ns_per_access.conflict", "ns/access", "lower"},
		{"membank.ns_per_access.noconflict", "ns/access", "lower"},
		{"msg.table3_ms", "ms", "lower"},
		{"cpu.table2_ms", "ms", "lower"},
		{"qsmlib.put_ns_per_word", "ns/word", "lower"},
		{"qsmlib.get_ns_per_word", "ns/word", "lower"},
		{"qsmlib.sync_us_per_phase", "us/phase", "lower"},
		{"qsmlib.phases_per_unit", "count", "lower"},
		{"qsmlib.words_per_unit", "count", "lower"},
		{"algorithms.sort_ms", "ms", "lower"},
		{"algorithms.listrank_ms", "ms", "lower"},
		{"sched.map_ns_per_job", "ns/job", "lower"},
		{"sched.steals_per_op", "steals/op", "lower"},
		{"store.result_key_us", "us", "lower"},
		{"store.get_mem_us", "us", "lower"},
		{"store.get_disk_us", "us", "lower"},
		{"store.get_miss_us", "us", "lower"},
		{"store.put_small_us", "us", "lower"},
		{"store.put_large_us", "us", "lower"},
		{"store.mem_hit_share", "share", "higher"},
		{"service.submit_hit_us", "us", "lower"},
		{"service.handler_submit_hit_us", "us", "lower"},
		{"service.handler_result_small_us", "us", "lower"},
		{"service.handler_result_large_us", "us", "lower"},
		{"service.queue_wait_ms_p50", "ms", "lower"},
		{"service.run_ms_p50", "ms", "lower"},
		{"service.stream_ttfe_ms_p50", "ms", "lower"},
		{"service.bytes_retained_per_op", "B/op", "lower"},
		{"service.jobs_retained", "count", "lower"},
		{"service.status_ms", "ms", "lower"},
		{"service.gc_cycles", "count", "lower"},
		{"service.gc_pause_ms", "ms", "lower"},
		{"client.submit_ms_p50", "ms", "lower"},
		{"client.wait_ms_p50", "ms", "lower"},
		{"client.result_ms_p50", "ms", "lower"},
		{"client.transport_us", "us", "lower"},
		{"client.op_ms_p90", "ms", "lower"},
		{"client.op_ms_p99", "ms", "lower"},
		{"client.op_ms_p999", "ms", "lower"},
		{"cluster.ring_owners_ns", "ns", "lower"},
		{"cluster.forwarded_share", "share", "lower"},
		{"cluster.forward_hop_ms", "ms", "lower"},
		{"cluster.bytes_retained_per_op", "B/op", "lower"},
		{"trace.overhead_share", "share", "lower"},
	}...)
}()

// defaultSeconds is BENCHMARK.json's run_seconds: the run length the work
// constants are sized for.
const defaultSeconds = 10

// manifest is BENCHMARK.json, generated from the tables above so the file
// and the program cannot drift (the smoke test compares them).
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var wls []wl
	for _, w := range workloads {
		wls = append(wls, wl{w.name, w.why})
	}
	data, err := json.MarshalIndent(struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []wl            `json:"workloads"`
		EndToEnd   []boundedMetric `json:"end_to_end"`
		PerLayer   []metricDef     `json:"per_layer"`
	}{[]string{"go", "run", "./benchmark"}, []string{"benchmark"}, defaultSeconds, wls, endToEnd, perLayer}, "", "  ")
	return append(data, '\n'), err
}

// metricValue and runResult are the line a child prints last on stdout.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// peakRSSMB is the process's high-water resident set, from VmHWM.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// runChild runs one workload in this process and returns its result line.
func runChild(ctx context.Context, c config) (runResult, outcome, error) {
	// Never more threads than the two cores the benchmark was sized on.
	runtime.GOMAXPROCS(2)
	if err := os.MkdirAll(c.scratch, 0o755); err != nil {
		return runResult{}, outcome{}, err
	}
	tmp, err := os.MkdirTemp(c.scratch, "tmp-"+c.w.name+"-")
	if err != nil {
		return runResult{}, outcome{}, err
	}
	defer os.RemoveAll(tmp)
	c.tmp = tmp

	run := runServe
	if c.w.exp != "" {
		run = runSim
	}
	o, err := run(ctx, c)
	if err != nil {
		return runResult{}, o, err
	}
	res := runResult{Attempted: o.attempted, Failed: o.failed, Correct: o.failed == 0, Metrics: map[string]metricValue{}}
	if c.traced {
		if err := probeMetrics(ctx, c, o.tr, o.layer); err != nil {
			return res, o, err
		}
		if c.w.nodes > 0 {
			// What the socket, net/http and loopback add to the handler's own time.
			o.layer["client.transport_us"] = o.layer["client.submit_ms_p50"]*1000 - o.layer["service.handler_submit_hit_us"]
		}
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricValue{o.layer[d.Name], d.Unit}
		}
		if err := writeTraceFiles(c, o, res); err != nil {
			return res, o, err
		}
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return res, o, err
		}
		rates, p50s := segments(o.lat, o.done, c.w.sized(c.scale()).segSize())
		vals := map[string]float64{
			"setup_s":     o.setupS,
			"work_per_s":  workPerS(rates),
			"lat_p50_ms":  latP50MS(p50s),
			"peak_rss_mb": rss,
		}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
		}
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return res, o, fmt.Errorf("metric %s is not finite", name)
		}
	}
	return res, o, nil
}

// writeTraceFiles leaves the traced child's artefacts under -out.
func writeTraceFiles(c config, o outcome, res runResult) error {
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		return err
	}
	if err := o.tr.writeChrome(filepath.Join(c.out, "trace-"+c.w.name+".json"), c.w.name); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(c.out, "layers-"+c.w.name+".json"), append(data, '\n'), 0o644)
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name      = flag.String("workload", "", "run this one workload in this process and print its result line; empty runs all six in child processes")
		seed      = flag.Int64("seed", 1, "drives every generated input (experiment seeds, key sequence)")
		seconds   = flag.Int("seconds", defaultSeconds, "run length the fixed work is sized for")
		traced    = flag.Int("trace", 0, "1 runs the traced replay and the layer probes and prints the per-layer metrics")
		quick     = flag.Bool("quick", false, "divide every work constant by 20 (smoke runs)")
		out       = flag.String("out", filepath.Join(buildDir, "out"), "directory for trace-<workload>.json and layers-<workload>.json")
		repeat    = flag.Int("repeat", 1, "timed runs per workload when running all six (run r uses seed+r)")
		selfcheck = flag.Bool("selfcheck", false, "two interleaved sets of five timed runs; non-zero exit if the sets disagree by more than a bound")
		printMan  = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *printMan {
		data, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		os.Stdout.Write(data)
		return 0
	}
	if *seconds < 1 || *repeat < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds and -repeat must be at least 1, -trace 0 or 1")
		return 2
	}
	// An interrupt cancels the context: windows stop at the next unit, the
	// deferred clean-up runs, and a parent kills the child it is waiting on.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *name == "" {
		p := parent{seed: *seed, seconds: *seconds, quick: *quick, out: *out}
		var err error
		if *selfcheck {
			err = p.selfcheck(ctx)
		} else {
			err = p.runAll(ctx, *repeat)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	c := config{w: w, seed: *seed, seconds: *seconds, quick: *quick, traced: *traced == 1, scratch: buildDir, out: *out}
	res, o, err := runChild(ctx, c)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "%s: %d units attempted, %d failed; %s; unit ms p50 %.4g (all units) min %.4g max %.4g\n",
		w.name, res.Attempted, res.Failed, o.note, o.latP50(), percentile(o.lat, 0), percentile(o.lat, 100))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
