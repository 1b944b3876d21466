// Command qsmtrace runs one QSM algorithm (prefix, sort, rank, wyllie,
// kselect or matmul) on the simulated multiprocessor at a chosen g, l, o
// and barrier, checks the result against the sequential baseline, and
// prints the per-node, per-phase timeline as CSV on stdout: when each Sync
// began and ended in simulated cycles and how many words it moved. The
// measurement summary goes to stderr, followed with -profile by the
// per-phase cost profile that core.RunProfiled records (the simulation, and
// so the CSV, is the same without it).
//
// Usage:
//
//	qsmtrace -alg sort -n 65536 -p 16 > timeline.csv
//	qsmtrace -alg rank -g 3 -l 1600 -o 400 -tree -profile > timeline.csv
//	qsmtrace -alg sort -trace sort.json   # Chrome trace JSON for Perfetto
//	qsmtrace -inspect sort.json merged.json
//
// -trace FILE also writes the run's sim-time spans (per-node superstep
// sync/compute spans and engine metrics, from internal/obs) as Chrome
// trace-event JSON, loadable in Perfetto or chrome://tracing.
//
// -inspect validates the trace files given as arguments instead of
// simulating: each must parse as Chrome trace-event JSON with an event
// array, well-formed spans and metadata. Each good file gets a one-line
// summary on stdout; a missing or malformed one gets a stderr diagnostic
// and exit status 1, so CI can gate on exported traces being loadable.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/algorithms"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/qsmlib"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() { cli.Main("qsmtrace", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("qsmtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("alg", "sort", "algorithm: prefix, sort, rank, wyllie, kselect, or matmul")
		n         = fs.Int("n", 65536, "problem size (matrix dimension for matmul, at most 512)")
		p         = fs.Int("p", 16, "processors")
		g         = fs.Float64("g", 3, "hardware gap, cycles/byte")
		l         = fs.Uint64("l", 1600, "latency, cycles")
		o         = fs.Uint64("o", 400, "per-message overhead, cycles")
		tree      = fs.Bool("tree", false, "use the dissemination barrier")
		seed      = fs.Int64("seed", 1, "random seed")
		profile   = fs.Bool("profile", false, "print the per-phase cost profile to stderr")
		traceFile = fs.String("trace", "", "write a Chrome trace-event JSON file of the run's sim-time spans")
		inspect   = fs.Bool("inspect", false, "validate the trace files given as arguments instead of simulating")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *inspect {
		return inspectFiles(fs.Args(), stdout, stderr)
	}
	if *n <= 0 || *p <= 0 {
		return cli.Usagef("-n and -p must be positive")
	}
	alg, want, err := setup(*name, *n, *seed)
	if err != nil {
		return err
	}

	net := machine.DefaultNet()
	net.Gap, net.Latency = *g, sim.Time(*l)
	net.SendOverhead, net.RecvOverhead = sim.Time(*o), sim.Time(*o)
	var rec *obs.Recorder
	if *traceFile != "" {
		rec = obs.New(obs.Config{Trace: true, Metrics: true})
	}
	m := qsmlib.New(*p, qsmlib.Options{Net: net, Seed: *seed, TreeBarrier: *tree, Obs: rec})
	var prof *core.Profile
	if *profile {
		prof, err = core.RunProfiled(m, alg.Program(), core.Flags{})
	} else {
		err = m.Run(alg.Program())
	}
	if err != nil {
		return err
	}
	if !slices.Equal(m.Array(alg.Out()), want) {
		return errors.New("verification failed: the result differs from the sequential baseline")
	}
	if rec != nil {
		if err := writeTrace(*traceFile, rec); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "qsmtrace: wrote %s (%d spans, %d dropped)\n",
			*traceFile, rec.Spans(), rec.DroppedSpans())
	}

	fmt.Fprintln(stdout, "node,phase,start_cycles,end_cycles,duration_cycles,put_words,get_words")
	for id := 0; id < *p; id++ {
		for _, s := range m.Timeline(id) {
			fmt.Fprintf(stdout, "%d,%d,%d,%d,%d,%d,%d\n",
				id, s.Phase, s.Start, s.End, s.End-s.Start, s.PutWords, s.GetWords)
		}
	}

	st := m.RunStats()
	fmt.Fprintf(stderr, "%s: n=%d p=%d g=%.1fc/B l=%d o=%d\n", *name, *n, *p, *g, *l, *o)
	fmt.Fprintf(stderr, "  total          %12d cycles (%.3f ms at 400 MHz)\n",
		st.TotalCycles, float64(st.TotalCycles)/400e3)
	fmt.Fprintf(stderr, "  communication  %12d cycles (bottleneck node)\n", st.MaxComm())
	fmt.Fprintf(stderr, "  computation    %12d cycles (bottleneck node)\n", st.MaxComp())
	fmt.Fprintf(stderr, "  messages       %12d (%d bytes on the wire)\n", st.MsgsSent, st.BytesSent)
	fmt.Fprintln(stderr, "  result verified against the sequential baseline")
	if prof != nil {
		fmt.Fprintf(stderr, "\nper-phase profile (%d phases):\n", prof.NumPhases())
		fmt.Fprintf(stderr, "  %-7s %-12s %-12s %-10s %s\n", "phase", "m_op", "m_rw", "h", "msgs")
		for i, ph := range prof.Phases {
			if ph.MaxOps() == 0 && ph.MaxRW() == 0 {
				continue
			}
			fmt.Fprintf(stderr, "  %-7d %-12d %-12d %-10d %d\n",
				i, ph.MaxOps(), ph.MaxRW(), ph.MaxH(), ph.MaxMsgs())
		}
	}
	return nil
}

// algorithm is what every entry of setup's table offers: a QSM program and
// the name of the shared array it leaves its result in.
type algorithm interface {
	Program() core.Program
	Out() string
}

// setup builds the named algorithm over a seeded input of size n, and the
// sequential baseline its result array must equal. The baseline is taken
// before the run, which may sort its input blocks in place.
func setup(name string, n int, seed int64) (algorithm, []int64, error) {
	in := workload.UniformInts(n, 0, seed)
	input := func(id, p int) []int64 {
		lo, hi := workload.Partition(n, p, id)
		return in[lo:hi]
	}
	switch name {
	case "prefix":
		return algorithms.PrefixSums{N: n, Input: input}, algorithms.SeqPrefix(in), nil
	case "sort":
		return algorithms.SampleSort{N: n, Input: input}, algorithms.SeqSort(in), nil
	case "rank":
		list := workload.RandomList(n, seed)
		return algorithms.ListRank{List: list}, algorithms.SeqListRank(list), nil
	case "wyllie":
		list := workload.RandomList(n, seed)
		return algorithms.WyllieListRank{List: list}, algorithms.SeqListRank(list), nil
	case "kselect":
		return algorithms.KSelect{N: n, K: n / 2, Input: input}, algorithms.SeqSort(in)[n/2 : n/2+1], nil
	case "matmul":
		dim := min(n, 512)
		a := workload.UniformInts(dim*dim, 100, seed)
		b := workload.UniformInts(dim*dim, 100, seed+1)
		rows := func(all []int64) func(id, p int) []int64 {
			return func(id, p int) []int64 {
				lo, hi := workload.Partition(dim, p, id)
				return all[lo*dim : hi*dim]
			}
		}
		return algorithms.MatMul{N: dim, A: rows(a), B: rows(b)}, algorithms.SeqMatMul(a, b, dim), nil
	}
	return nil, nil, cli.Usagef("unknown algorithm %q (prefix, sort, rank, wyllie, kselect, matmul)", name)
}

// writeTrace writes rec's spans to path as Chrome trace-event JSON and
// removes the file again if it cannot be written whole.
func writeTrace(path string, rec *obs.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = rec.WriteTraceJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path) // no silent partial trace files
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

// inspectFiles validates each file as Chrome trace-event JSON and prints a
// per-file summary. It fails when any file is missing or malformed, and is
// a usage error without files.
func inspectFiles(files []string, stdout, stderr io.Writer) error {
	if len(files) == 0 {
		return cli.Usagef("-inspect needs at least one trace file argument")
	}
	bad := 0
	for _, path := range files {
		summary, err := inspectTrace(path)
		if err != nil {
			fmt.Fprintf(stderr, "qsmtrace: %s: %v\n", path, err)
			bad++
			continue
		}
		fmt.Fprintf(stdout, "%s: %s\n", path, summary)
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d trace files invalid", bad, len(files))
	}
	return nil
}

// traceEvent is the subset of a Chrome trace event -inspect checks. Numeric
// fields are pointers so "present but zero" and "absent" stay distinct.
type traceEvent struct {
	Ph   string          `json:"ph"`
	Pid  *int            `json:"pid"`
	Tid  *int            `json:"tid"`
	Ts   *float64        `json:"ts"`
	Dur  *float64        `json:"dur"`
	Name string          `json:"name"`
	Args json.RawMessage `json:"args"`
}

// inspectTrace parses and structurally validates one trace file, returning a
// human-readable summary.
func inspectTrace(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	if len(data) == 0 {
		return "", fmt.Errorf("empty file")
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		OtherData   map[string]any    `json:"otherData"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return "", fmt.Errorf("malformed JSON: %v", err)
	}
	if doc.TraceEvents == nil {
		return "", fmt.Errorf("no traceEvents array (not a Chrome trace file?)")
	}
	var spans, meta, instants int
	pids := map[int]bool{}
	for i, raw := range doc.TraceEvents {
		var ev traceEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			return "", fmt.Errorf("event %d: malformed: %v", i, err)
		}
		if ev.Pid == nil {
			return "", fmt.Errorf("event %d (%q): missing pid", i, ev.Name)
		}
		pids[*ev.Pid] = true
		switch ev.Ph {
		case "X":
			if ev.Name == "" || ev.Ts == nil || ev.Dur == nil {
				return "", fmt.Errorf("event %d: complete span missing name/ts/dur", i)
			}
			if *ev.Dur < 0 {
				return "", fmt.Errorf("event %d (%q): negative duration %v", i, ev.Name, *ev.Dur)
			}
			spans++
		case "M":
			if ev.Name == "" {
				return "", fmt.Errorf("event %d: metadata event missing name", i)
			}
			meta++
		case "i", "I":
			if ev.Name == "" || ev.Ts == nil {
				return "", fmt.Errorf("event %d: instant event missing name/ts", i)
			}
			instants++
		case "":
			return "", fmt.Errorf("event %d (%q): missing ph", i, ev.Name)
		default:
			// Other phases are legal Chrome trace constructs we don't emit;
			// count nothing but accept them.
		}
	}
	if spans+instants == 0 {
		return "", fmt.Errorf("no span or instant events (empty trace)")
	}
	summary := fmt.Sprintf("ok: %d spans, %d instants, %d metadata events, %d process rows",
		spans, instants, meta, len(pids))
	if id, ok := doc.OtherData["traceId"].(string); ok && id != "" {
		summary += ", trace ID " + id
	}
	return summary, nil
}
