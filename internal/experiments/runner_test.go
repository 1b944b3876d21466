package experiments

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestParMapOrder(t *testing.T) {
	for _, par := range []int{1, 2, 7, 32} {
		got := parMap(par, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("par=%d: out[%d] = %d, want %d", par, i, v, i*i)
			}
		}
	}
}

func TestParMapEmpty(t *testing.T) {
	if got := parMap(4, 0, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("parMap over 0 items returned %v", got)
	}
}

func TestParMapPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic in a parallel job was swallowed")
		}
		wp, ok := r.(*workerPanic)
		if !ok {
			t.Fatalf("re-raised panic is %T, want *workerPanic", r)
		}
		msg := wp.Error()
		if !strings.Contains(msg, "job failure") {
			t.Errorf("re-raised panic lost the original value: %q", msg)
		}
		// The worker's stack must survive the re-raise so a failing
		// simulation under -parallel is debuggable.
		if !strings.Contains(msg, "worker stack:") || !strings.Contains(msg, "runner_test.go") {
			t.Errorf("re-raised panic carries no usable worker stack:\n%s", msg)
		}
	}()
	parMap(4, 16, func(i int) int {
		if i == 7 {
			panic("job failure")
		}
		return i
	})
}

func TestSweepRunsShape(t *testing.T) {
	opt := Options{Parallelism: 3}
	got := sweepRuns(opt, 4, 5, func(pt, r int, _ *obs.Recorder) [2]int { return [2]int{pt, r} })
	if len(got) != 4 {
		t.Fatalf("points = %d, want 4", len(got))
	}
	for pt := range got {
		if len(got[pt]) != 5 {
			t.Fatalf("point %d has %d runs, want 5", pt, len(got[pt]))
		}
		for r, v := range got[pt] {
			if v != [2]int{pt, r} {
				t.Fatalf("result[%d][%d] = %v", pt, r, v)
			}
		}
	}
}

func TestParallelismDefault(t *testing.T) {
	if got := (Options{}).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("default parallelism = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := (Options{Parallelism: 3}).Workers(); got != 3 {
		t.Errorf("explicit parallelism = %d, want 3", got)
	}
}

// TestParallelDeterminism is the contract the runner is built around: for
// every experiment, the serial path and the work-stealing pool at any width
// (par ∈ {1, 4, GOMAXPROCS, 8}) must render byte-identical tables at the
// same seed — and, with observability on, byte-identical aggregated metrics
// too, no matter how the steal interleaving falls out.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps in -short mode")
	}
	pars := []int{4, runtime.GOMAXPROCS(0), 8}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			serialSink := obs.NewSink(obs.Config{Metrics: true})
			serial, err := Run(id, Options{Seed: 1, Runs: 2, Quick: true, Parallelism: 1, Obs: serialSink})
			if err != nil {
				t.Fatal(err)
			}
			var serialMetrics bytes.Buffer
			if err := serialSink.Merged().WriteMetricsJSON(&serialMetrics); err != nil {
				t.Fatal(err)
			}
			for _, par := range pars {
				parallelSink := obs.NewSink(obs.Config{Metrics: true})
				parallel, err := Run(id, Options{Seed: 1, Runs: 2, Quick: true, Parallelism: par, Obs: parallelSink})
				if err != nil {
					t.Fatal(err)
				}
				a, b := serial.String(), parallel.String()
				if a != b {
					line := 0
					la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
					for line < len(la) && line < len(lb) && la[line] == lb[line] {
						line++
					}
					t.Errorf("par=%d output diverges from serial at line %d:\nserial:   %q\nparallel: %q",
						par, line, at(la, line), at(lb, line))
				}
				var mb bytes.Buffer
				if err := parallelSink.Merged().WriteMetricsJSON(&mb); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(serialMetrics.Bytes(), mb.Bytes()) {
					t.Errorf("aggregated metrics diverge between serial and par=%d runs (%d vs %d bytes)",
						par, serialMetrics.Len(), mb.Len())
				}
			}
		})
	}
}

// TestProgressCallback checks the runner reports one completed job per
// (point, run) with consistent totals, at any parallelism.
func TestProgressCallback(t *testing.T) {
	var mu sync.Mutex
	var events []Progress
	opt := Options{
		Parallelism: 4,
		Progress: func(p Progress) {
			mu.Lock()
			events = append(events, p)
			mu.Unlock()
		},
	}
	sweepRuns(opt, 3, 4, func(pt, r int, _ *obs.Recorder) int { return pt*10 + r })
	if len(events) != 12 {
		t.Fatalf("got %d progress events, want 12", len(events))
	}
	final := map[int]int{}
	for _, p := range events {
		if p.Points != 3 || p.Runs != 4 {
			t.Fatalf("progress totals = (%d points, %d runs), want (3, 4)", p.Points, p.Runs)
		}
		if p.RunsDone < 1 || p.RunsDone > 4 {
			t.Fatalf("RunsDone = %d out of range", p.RunsDone)
		}
		if p.RunsDone > final[p.Point] {
			final[p.Point] = p.RunsDone
		}
	}
	for pt := 0; pt < 3; pt++ {
		if final[pt] != 4 {
			t.Errorf("point %d finished with RunsDone=%d, want 4", pt, final[pt])
		}
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<eof>"
}
