package service_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/store"
)

// The scheduler tests steer worker timing through registered test
// experiments: test-block parks inside the driver until released (or its
// Options.Context is cancelled), test-fail errors, test-panic panics, and
// test-flaky fails until its failure budget runs out.
var (
	blockMu        sync.Mutex
	blockStarted   chan int64
	blockRelease   chan struct{}
	flakyRemaining atomic.Int32
)

func init() {
	experiments.Register("test-block", "blocks until released (test)", func(o experiments.Options) (*experiments.Result, error) {
		blockMu.Lock()
		started, release := blockStarted, blockRelease
		blockMu.Unlock()
		if started != nil {
			started <- o.Seed
		}
		if release != nil {
			ctx := o.Context
			if ctx == nil {
				ctx = context.Background()
			}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		tb := report.NewTable("block", "seed")
		tb.AddRow(fmt.Sprint(o.Seed))
		return &experiments.Result{ID: "test-block", Title: "test", Tables: []*report.Table{tb}}, nil
	})
	experiments.Register("test-fail", "always fails (test)", func(o experiments.Options) (*experiments.Result, error) {
		return nil, errors.New("deliberate failure")
	})
	experiments.Register("test-panic", "always panics (test)", func(o experiments.Options) (*experiments.Result, error) {
		panic("deliberate panic")
	})
	experiments.Register("test-flaky", "fails until the budget is spent (test)", func(o experiments.Options) (*experiments.Result, error) {
		if flakyRemaining.Add(-1) >= 0 {
			return nil, errors.New("transient failure")
		}
		tb := report.NewTable("flaky", "seed")
		tb.AddRow(fmt.Sprint(o.Seed))
		return &experiments.Result{ID: "test-flaky", Title: "test", Tables: []*report.Table{tb}}, nil
	})
}

// resetBlock re-arms the test-block experiment and returns its start-signal
// and release channels.
func resetBlock() (chan int64, chan struct{}) {
	blockMu.Lock()
	defer blockMu.Unlock()
	blockStarted = make(chan int64, 16)
	blockRelease = make(chan struct{})
	return blockStarted, blockRelease
}

// testSched wraps a scheduler with a channel fed by Config.StateHook, so
// tests synchronize on real lifecycle transitions instead of polling the
// wall clock.
type testSched struct {
	*service.Scheduler
	events chan service.JobStatus
	// seen holds terminal states drained from events while waiting for a
	// different job.
	seen map[string]service.JobStatus
}

func newSched(t *testing.T, cfg service.Config) *testSched {
	t.Helper()
	if cfg.Store == nil {
		st, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = st
	}
	if cfg.Fingerprint == "" {
		cfg.Fingerprint = "test-fp"
	}
	ts := &testSched{
		events: make(chan service.JobStatus, 1024),
		seen:   map[string]service.JobStatus{},
	}
	if cfg.StateHook == nil {
		cfg.StateHook = func(js service.JobStatus) { ts.events <- js }
	}
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts.Scheduler = s
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return ts
}

func terminal(st service.State) bool {
	return st == service.StateDone || st == service.StateFailed
}

// waitJob blocks on lifecycle events until the job reaches a terminal
// state. The timer is a failure deadline, not a poll interval.
func waitJob(t *testing.T, s *testSched, id string) service.JobStatus {
	t.Helper()
	if js, ok := s.seen[id]; ok {
		return js
	}
	deadline := time.After(30 * time.Second)
	for {
		select {
		case js := <-s.events:
			if !terminal(js.State) {
				continue
			}
			if js.ID == id {
				return js
			}
			s.seen[js.ID] = js
		case <-deadline:
			t.Fatalf("job %s did not finish", id)
		}
	}
}

func submit(t *testing.T, s *testSched, exp string, seed int64) service.JobStatus {
	t.Helper()
	js, err := s.Submit(service.Request{
		Experiment: exp,
		Options:    experiments.Options{Seed: seed, Runs: 1, Quick: true}.Key(),
	})
	if err != nil {
		t.Fatalf("submit %s seed %d: %v", exp, seed, err)
	}
	return js
}

func TestSubmitUnknownExperiment(t *testing.T) {
	s := newSched(t, service.Config{})
	_, err := s.Submit(service.Request{Experiment: "nope"})
	if !errors.Is(err, service.ErrUnknownExperiment) {
		t.Errorf("Submit(nope) error = %v, want ErrUnknownExperiment", err)
	}
}

func TestCacheHitOnResubmit(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := newSched(t, service.Config{Store: st, CollectMetrics: true})

	first := submit(t, s, "fig7", 1)
	if first.Cached {
		t.Error("first submission reported cached")
	}
	done := waitJob(t, s, first.ID)
	if done.State != service.StateDone {
		t.Fatalf("first job state = %s (%s)", done.State, done.Error)
	}
	if done.ResultKey != first.CacheKey {
		t.Errorf("result key %s != cache key %s", done.ResultKey, first.CacheKey)
	}
	if done.Attempt != 1 {
		t.Errorf("computed job attempt = %d, want 1", done.Attempt)
	}
	e1, ok, err := st.Get(done.ResultKey)
	if err != nil || !ok {
		t.Fatalf("result not in store: (%v, %v)", ok, err)
	}
	if e1.Tables == "" || e1.Bench == nil {
		t.Errorf("entry missing tables or bench record: %+v", e1)
	}
	if len(e1.Metrics) == 0 {
		t.Error("CollectMetrics on, but entry has no metrics JSON")
	}

	// Identical resubmission: done at admission, no re-simulation, tables
	// byte-identical (it is the same content-addressed entry).
	second := submit(t, s, "fig7", 1)
	if second.State != service.StateDone || !second.Cached {
		t.Fatalf("resubmission = state %s cached %v, want immediate cached done", second.State, second.Cached)
	}
	e2, ok, err := st.Get(second.ResultKey)
	if err != nil || !ok {
		t.Fatal("cached result missing")
	}
	if e1.Tables != e2.Tables {
		t.Error("cached tables differ from original run")
	}

	var b strings.Builder
	if err := s.WriteMetricsText(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"qsm_service_cache_hits_total 1",
		"qsm_service_cache_misses_total 1",
		"qsm_service_jobs_submitted_total 2",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("metrics dump missing %q:\n%s", want, b.String())
		}
	}
}

func TestQueueFullRejection(t *testing.T) {
	started, release := resetBlock()
	s := newSched(t, service.Config{Workers: 1, QueueCap: 1})

	a := submit(t, s, "test-block", 1)
	<-started // the worker now holds job A open; the queue is empty
	b := submit(t, s, "test-block", 2)

	_, err := s.Submit(service.Request{
		Experiment: "test-block",
		Options:    experiments.Options{Seed: 3, Runs: 1, Quick: true}.Key(),
	})
	var full *service.QueueFullError
	if !errors.As(err, &full) {
		t.Fatalf("over-capacity submit error = %v, want QueueFullError", err)
	}
	if full.Capacity != 1 {
		t.Errorf("QueueFullError.Capacity = %d, want 1", full.Capacity)
	}

	close(release)
	if js := waitJob(t, s, a.ID); js.State != service.StateDone {
		t.Errorf("job A state = %s (%s)", js.State, js.Error)
	}
	if js := waitJob(t, s, b.ID); js.State != service.StateDone {
		t.Errorf("job B state = %s (%s)", js.State, js.Error)
	}
}

func TestConcurrentIdenticalSubmissionsRunOnce(t *testing.T) {
	started, release := resetBlock()
	s := newSched(t, service.Config{Workers: 2, QueueCap: 8})

	a := submit(t, s, "test-block", 5)
	b := submit(t, s, "test-block", 5)
	<-started // exactly one simulation starts...
	select {  // ...and the duplicate shares it instead of starting its own
	case seed := <-started:
		t.Fatalf("duplicate submission started its own simulation (seed %d)", seed)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)

	ja, jb := waitJob(t, s, a.ID), waitJob(t, s, b.ID)
	if ja.State != service.StateDone || jb.State != service.StateDone {
		t.Fatalf("states = %s/%s (%s/%s)", ja.State, jb.State, ja.Error, jb.Error)
	}
	if ja.Cached == jb.Cached {
		t.Errorf("exactly one of the two identical jobs should compute: cached = %v/%v", ja.Cached, jb.Cached)
	}
	if ja.ResultKey != jb.ResultKey {
		t.Errorf("identical jobs landed on different results: %s vs %s", ja.ResultKey, jb.ResultKey)
	}
}

// TestDuplicatesAmongDistinctRunOnce: identical submissions interleaved
// with distinct ones on two workers run one simulation between them, and
// every duplicate ends done with the same result key.
func TestDuplicatesAmongDistinctRunOnce(t *testing.T) {
	started, release := resetBlock()
	s := newSched(t, service.Config{Workers: 2, QueueCap: 16})

	const dupSeed, n = 300, 6
	var dups, all []string
	for i := int64(0); i < n; i++ {
		dups = append(dups, submit(t, s, "test-block", dupSeed).ID)
		all = append(all, dups[i], submit(t, s, "test-block", dupSeed+1+i).ID)
	}
	close(release)
	var key string
	for _, id := range all {
		js := waitJob(t, s, id)
		if js.State != service.StateDone {
			t.Fatalf("job %s = %s (%s), want done", id, js.State, js.Error)
		}
		if js.Options.Seed == dupSeed {
			if key == "" {
				key = js.ResultKey
			}
			if js.ResultKey != key {
				t.Errorf("duplicate %s landed on %s, want %s", id, js.ResultKey, key)
			}
		}
	}
	runs := map[int64]int{}
	for len(started) > 0 {
		runs[<-started]++
	}
	if runs[dupSeed] != 1 {
		t.Errorf("%d identical submissions ran %d simulations, want 1", n, runs[dupSeed])
	}
	for i := int64(1); i <= n; i++ {
		if runs[dupSeed+i] != 1 {
			t.Errorf("distinct seed %d ran %d simulations, want 1", dupSeed+i, runs[dupSeed+i])
		}
	}
}

func TestJobFailure(t *testing.T) {
	s := newSched(t, service.Config{})
	js := waitJob(t, s, submit(t, s, "test-fail", 1).ID)
	if js.State != service.StateFailed || !strings.Contains(js.Error, "deliberate failure") {
		t.Errorf("job = %s %q, want failed with the driver's error", js.State, js.Error)
	}
	if js.Attempt != 1 {
		t.Errorf("attempt = %d, want 1 (no retry budget configured)", js.Attempt)
	}
}

func TestPanicIsolation(t *testing.T) {
	s := newSched(t, service.Config{Workers: 1})
	js := waitJob(t, s, submit(t, s, "test-panic", 1).ID)
	if js.State != service.StateFailed || !strings.Contains(js.Error, "panicked") {
		t.Errorf("job = %s %q, want failed with a panic report", js.State, js.Error)
	}
	// The worker survived; the scheduler still serves.
	if js := waitJob(t, s, submit(t, s, "fig7", 1).ID); js.State != service.StateDone {
		t.Errorf("post-panic job state = %s (%s)", js.State, js.Error)
	}
}

func TestJobRetrySucceeds(t *testing.T) {
	flakyRemaining.Store(2) // first two attempts fail
	s := newSched(t, service.Config{Workers: 1, JobRetries: 3})
	js := waitJob(t, s, submit(t, s, "test-flaky", 1).ID)
	if js.State != service.StateDone {
		t.Fatalf("flaky job = %s (%s), want done after retries", js.State, js.Error)
	}
	if js.Attempt != 3 {
		t.Errorf("attempt = %d, want 3 (two failures, then success)", js.Attempt)
	}
	var b strings.Builder
	if err := s.WriteMetricsText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "qsm_service_jobs_retried_total 2") {
		t.Errorf("metrics missing retry count:\n%s", b.String())
	}
}

func TestJobRetryBudgetExhausted(t *testing.T) {
	flakyRemaining.Store(100)
	s := newSched(t, service.Config{Workers: 1, JobRetries: 2})
	js := waitJob(t, s, submit(t, s, "test-flaky", 2).ID)
	if js.State != service.StateFailed || !strings.Contains(js.Error, "transient failure") {
		t.Errorf("job = %s %q, want failed with the driver's error", js.State, js.Error)
	}
	if js.Attempt != 3 {
		t.Errorf("attempt = %d, want 3 (initial + 2 retries)", js.Attempt)
	}
}

func TestJobTimeoutRetries(t *testing.T) {
	started, release := resetBlock()
	s := newSched(t, service.Config{
		Workers:    1,
		JobTimeout: 50 * time.Millisecond,
		JobRetries: 1,
	})
	js := submit(t, s, "test-block", 7)
	<-started // attempt 1 blocks until its per-attempt deadline cancels it
	<-started // attempt 2 started: the timeout was converted into a retry
	close(release)
	done := waitJob(t, s, js.ID)
	if done.State != service.StateDone {
		t.Fatalf("job = %s (%s), want done on the retry", done.State, done.Error)
	}
	if done.Attempt != 2 {
		t.Errorf("attempt = %d, want 2", done.Attempt)
	}
}

func TestJobTimeoutExhaustsRetries(t *testing.T) {
	started, _ := resetBlock() // nothing ever releases the block
	s := newSched(t, service.Config{
		Workers:    1,
		JobTimeout: 30 * time.Millisecond,
		JobRetries: 1,
	})
	js := submit(t, s, "test-block", 8)
	<-started
	<-started
	done := waitJob(t, s, js.ID)
	if done.State != service.StateFailed || !strings.Contains(done.Error, context.DeadlineExceeded.Error()) {
		t.Errorf("job = %s %q, want failed with the attempt deadline", done.State, done.Error)
	}
	if done.Attempt != 2 {
		t.Errorf("attempt = %d, want 2", done.Attempt)
	}
}

func TestInjectedPanicIsRetried(t *testing.T) {
	inj := faults.New(faults.Config{
		Seed:  1,
		Rules: map[faults.Class]faults.Rule{faults.WorkerPanic: {Every: 1, Max: 1}},
	})
	s := newSched(t, service.Config{Workers: 1, JobRetries: 1, Faults: inj})
	js := waitJob(t, s, submit(t, s, "fig7", 3).ID)
	if js.State != service.StateDone {
		t.Fatalf("job = %s (%s), want done after the injected panic", js.State, js.Error)
	}
	if js.Attempt != 2 {
		t.Errorf("attempt = %d, want 2 (panic on the first)", js.Attempt)
	}
	if n := inj.Count(faults.WorkerPanic); n != 1 {
		t.Errorf("injected panics = %d, want 1", n)
	}
	// The injector's fire counters ride along on the scheduler's metrics
	// dump (what /metricsz serves).
	var b strings.Builder
	if err := s.WriteMetricsText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `qsm_faults_injected_total{class="worker_panic"} 1`) {
		t.Errorf("metrics dump missing injector counters:\n%s", b.String())
	}
}

func TestInjectedSlowJobHitsTimeout(t *testing.T) {
	inj := faults.New(faults.Config{
		Seed: 1,
		Rules: map[faults.Class]faults.Rule{
			faults.SlowJob: {Every: 1, Max: 1, Delay: 10 * time.Second},
		},
	})
	flakyRemaining.Store(0) // test-flaky succeeds instantly once the delay is gone
	s := newSched(t, service.Config{
		Workers:    1,
		JobTimeout: 50 * time.Millisecond,
		JobRetries: 1,
		Faults:     inj,
	})
	js := waitJob(t, s, submit(t, s, "test-flaky", 4).ID)
	if js.State != service.StateDone {
		t.Fatalf("job = %s (%s), want done once the slow-job budget is spent", js.State, js.Error)
	}
	if js.Attempt != 2 {
		t.Errorf("attempt = %d, want 2 (first attempt injected slow, timed out)", js.Attempt)
	}
	if n := inj.Count(faults.SlowJob); n != 1 {
		t.Errorf("injected slowdowns = %d, want 1", n)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	started, release := resetBlock()
	s := newSched(t, service.Config{Workers: 1, QueueCap: 4})

	a := submit(t, s, "test-block", 1)
	<-started
	b := submit(t, s, "test-block", 2)
	if !s.Cancel(b.ID) {
		t.Fatal("Cancel reported job B unknown")
	}
	close(release)

	if js := waitJob(t, s, a.ID); js.State != service.StateDone {
		t.Errorf("job A state = %s (%s)", js.State, js.Error)
	}
	js := waitJob(t, s, b.ID)
	if js.State != service.StateFailed || !strings.Contains(js.Error, context.Canceled.Error()) {
		t.Errorf("cancelled job = %s %q, want failed with context.Canceled", js.State, js.Error)
	}
}

func TestCancelledJobIsNotRetried(t *testing.T) {
	started, release := resetBlock()
	s := newSched(t, service.Config{Workers: 1, JobRetries: 5})
	js := submit(t, s, "test-block", 9)
	<-started
	if !s.Cancel(js.ID) {
		t.Fatal("Cancel reported the job unknown")
	}
	close(release)
	done := waitJob(t, s, js.ID)
	if done.State != service.StateFailed {
		t.Fatalf("cancelled job = %s, want failed", done.State)
	}
	if done.Attempt != 1 {
		t.Errorf("attempt = %d, want 1 (cancellation must not consume the retry budget)", done.Attempt)
	}
}

func TestDrain(t *testing.T) {
	started, release := resetBlock()
	s := newSched(t, service.Config{Workers: 1})
	a := submit(t, s, "test-block", 1)
	<-started

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	<-s.DrainBegun()
	if _, err := s.Submit(service.Request{
		Experiment: "test-block",
		Options:    experiments.Options{Seed: 9, Runs: 1, Quick: true}.Key(),
	}); !errors.Is(err, service.ErrDraining) {
		t.Errorf("submit during drain = %v, want ErrDraining", err)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Errorf("Drain = %v, want nil (in-flight job finished)", err)
	}
	if js, _ := s.Job(a.ID); js.State != service.StateDone {
		t.Errorf("in-flight job after drain = %s (%s), want done", js.State, js.Error)
	}
}

func TestDrainDeadlineCancelsJobs(t *testing.T) {
	started, _ := resetBlock()
	s := newSched(t, service.Config{Workers: 1})
	a := submit(t, s, "test-block", 1)
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	// Nothing ever releases the block; the deadline must cancel the job
	// through its context and still unwind the pool.
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Drain = %v, want DeadlineExceeded", err)
	}
	if js, _ := s.Job(a.ID); js.State != service.StateFailed {
		t.Errorf("job after forced drain = %s, want failed", js.State)
	}
}
