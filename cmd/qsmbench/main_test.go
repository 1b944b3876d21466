package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/store"
)

// invoke runs qsmbench in process and returns its stdout, stderr and exit
// code.
func invoke(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = cli.ExitCode(run(args, &out, &errb))
	return out.String(), errb.String(), code
}

// trailer matches the one line per experiment that carries wall times and
// cache keys; everything else qsmbench prints is deterministic.
var trailer = regexp.MustCompile(`(?m)^\[fig7 .*\]$`)

func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{},
		{"-no-such-flag"},
		{"-server", "http://127.0.0.1:1", "-csv", "fig7"},
		{"-server", "http://127.0.0.1:1", "-metrics", "fig7"},
		{"-server", "http://127.0.0.1:1", "-trace", dir, "fig7"},
		{"-server", "http://127.0.0.1:1", "-json", dir, "fig7"},
		{"-server", "http://127.0.0.1:1", "-cache", dir, "fig7"},
		{"-cache", dir, "-csv", "fig7"},
		{"-cache", dir, "-trace", dir, "fig7"},
	} {
		if out, stderr, code := invoke(t, args...); code != 2 || out != "" {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 2 and no output", args, code, out, stderr)
		}
	}
	if _, _, code := invoke(t, "-exp", "no-such-experiment"); code != 1 {
		t.Errorf("unknown experiment: exit %d, want 1", code)
	}
}

// TestCacheHit runs one experiment twice through -cache: the second run is
// a hit and prints the same tables.
func TestCacheHit(t *testing.T) {
	args := []string{"-cache", t.TempDir(), "-quick", "-runs", "1", "fig7"}
	first, stderr, code := invoke(t, args...)
	if code != 0 {
		t.Fatalf("first run: exit %d: %s", code, stderr)
	}
	second, stderr, code := invoke(t, args...)
	if code != 0 {
		t.Fatalf("second run: exit %d: %s", code, stderr)
	}
	if !strings.Contains(first, "; cached as ") || !strings.Contains(second, "[fig7 cache hit in ") {
		t.Errorf("want a miss then a hit; got trailers %q then %q",
			trailer.FindString(first), trailer.FindString(second))
	}
	if a, b := trailer.ReplaceAllString(first, ""), trailer.ReplaceAllString(second, ""); a != b || !strings.Contains(a, "==") {
		t.Errorf("cached tables differ:\n%s\nvs\n%s", a, b)
	}
}

// progressRuns is how many runs the bench-progress experiment reports.
const progressRuns = 5

// watchedSched is the scheduler bench-progress runs on. The experiment
// waits until one of its event streams has a subscriber before it reports
// progress, so a watching client sees every report.
var watchedSched atomic.Pointer[service.Scheduler]

func init() {
	experiments.Register("bench-progress", "reports progress once its job is watched (test)",
		func(o experiments.Options) (*experiments.Result, error) {
			for deadline := time.Now().Add(10 * time.Second); len(watchedSched.Load().AdminState().Subscribers) == 0; {
				if time.Now().After(deadline) {
					return nil, errors.New("no client watched the job")
				}
				time.Sleep(time.Millisecond)
			}
			for i := 0; i < progressRuns; i++ {
				o.Progress(experiments.Progress{Point: i, Points: progressRuns, RunsDone: 1, Runs: 1})
			}
			tb := report.NewTable("bench-progress", "runs")
			tb.AddRow(fmt.Sprint(progressRuns))
			return &experiments.Result{ID: "bench-progress", Title: "progress test", Tables: []*report.Table{tb}}, nil
		})
}

// progressLine matches one progress line qsmbench -server -progress prints.
var progressLine = regexp.MustCompile(`(?m)^qsmbench: bench-progress: \S+, (\d+) jobs done \([0-9.]+s elapsed\)$`)

// TestServer submits the same experiment twice to an in-process qsmd: the
// repeat is served from the server's cache with the same tables. A cold
// -progress run prints one line per progress event, in order.
func TestServer(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := service.New(service.Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Error(err)
		}
	})
	args := []string{"-server", srv.URL, "-quick", "-runs", "1", "fig7"}
	first, stderr, code := invoke(t, args...)
	if code != 0 {
		t.Fatalf("first submit: exit %d: %s", code, stderr)
	}
	second, stderr, code := invoke(t, args...)
	if code != 0 {
		t.Fatalf("second submit: exit %d: %s", code, stderr)
	}
	if !strings.Contains(second, "server cache hit") {
		t.Errorf("repeat submit not a server cache hit: %q", trailer.FindString(second))
	}
	if a, b := trailer.ReplaceAllString(first, ""), trailer.ReplaceAllString(second, ""); a != b || !strings.Contains(a, "==") {
		t.Errorf("served tables differ:\n%s\nvs\n%s", a, b)
	}

	watchedSched.Store(s)
	if _, stderr, code = invoke(t, "-server", srv.URL, "-progress", "bench-progress"); code != 0 {
		t.Fatalf("-progress run: exit %d: %s", code, stderr)
	}
	lines := progressLine.FindAllStringSubmatch(stderr, -1)
	if len(lines) != progressRuns {
		t.Fatalf("-progress printed %d progress lines, want %d:\n%s", len(lines), progressRuns, stderr)
	}
	for i := 1; i < len(lines); i++ {
		if prev, cur := atoi(t, lines[i-1][1]), atoi(t, lines[i][1]); cur < prev {
			t.Errorf("progress went from %d to %d jobs done:\n%s", prev, cur, stderr)
		}
	}
}

func atoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestObservabilityFiles runs fig7 with -metrics and -trace: the metrics
// file must hold the per-bank queue-depth histograms of the memory banks,
// and the trace file, valid Chrome trace JSON, their bank spans.
func TestObservabilityFiles(t *testing.T) {
	dir := t.TempDir()
	if _, stderr, code := invoke(t, "-exp", "fig7", "-quick", "-runs", "2",
		"-metrics", "-trace", dir, "-json", dir); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var m struct {
		Histograms []struct{ Subsystem, Name string }
	}
	readJSON(t, filepath.Join(dir, "METRICS_fig7.json"), &m)
	found := false
	for _, h := range m.Histograms {
		found = found || h.Subsystem == "membank" && h.Name == "queue_depth"
	}
	if !found {
		t.Error("METRICS_fig7.json has no membank queue_depth histograms")
	}
	var tr struct {
		TraceEvents []struct{ Ph, Cat string }
	}
	readJSON(t, filepath.Join(dir, "TRACE_fig7.json"), &tr)
	found = false
	for _, e := range tr.TraceEvents {
		found = found || e.Ph == "X" && e.Cat == "bank"
	}
	if !found {
		t.Error("TRACE_fig7.json has no bank spans")
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestCachedMetricsFile: -cache writes the same METRICS bytes as a plain
// run, on the run that fills the cache and on the hit that reads it back.
func TestCachedMetricsFile(t *testing.T) {
	plain, cache := t.TempDir(), t.TempDir()
	if _, stderr, code := invoke(t, "-quick", "-runs", "1", "-metrics", "-json", plain, "fig7"); code != 0 {
		t.Fatalf("plain run: exit %d: %s", code, stderr)
	}
	want, err := os.ReadFile(filepath.Join(plain, "METRICS_fig7.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []string{"miss", "hit"} {
		dir := t.TempDir()
		if _, stderr, code := invoke(t, "-cache", cache, "-quick", "-runs", "1", "-metrics", "-json", dir, "fig7"); code != 0 {
			t.Fatalf("cached run (%s): exit %d: %s", run, code, stderr)
		}
		got, err := os.ReadFile(filepath.Join(dir, "METRICS_fig7.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("cached run (%s) wrote %d METRICS bytes, plain run %d; they differ", run, len(got), len(want))
		}
	}
}
