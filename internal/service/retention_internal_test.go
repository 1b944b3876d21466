package service

// Tests that hit each bound on the scheduler's per-job state: the ring of
// retained finished jobs, batches dropped with their last member, the 404
// for an evicted id, and a shutdown after heavy traffic that leaves no
// goroutine behind.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/store"
)

// ringSched starts a scheduler whose ring retains ringCap finished jobs and
// whose store already holds a result for fig7 at each of the cached seeds.
func ringSched(t *testing.T, ringCap int, cfg Config, cached ...int64) *Scheduler {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store, cfg.Fingerprint = st, "test-fp"
	for _, seed := range cached {
		opts := fig7Opts(seed)
		if err := st.Put(&store.Entry{Key: store.ResultKey("fig7", opts, cfg.Fingerprint),
			Experiment: "fig7", Options: opts, Fingerprint: cfg.Fingerprint, Tables: "cached\n"}); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.ringCap = ringCap
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s
}

func fig7Opts(seed int64) experiments.OptionsKey {
	return experiments.Options{Seed: seed, Runs: 1, Quick: true}.Key()
}

func submitFig7(t *testing.T, s *Scheduler, seed int64) JobStatus {
	t.Helper()
	js, err := s.Submit(Request{Experiment: "fig7", Options: fig7Opts(seed)})
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// TestRingEvictsOldestFinished: past the ring's capacity each finished job
// evicts the oldest one, so the table, Jobs() and every id lookup see only
// the newest; Status keeps counting every job ever admitted.
func TestRingEvictsOldestFinished(t *testing.T) {
	const ringCap, hits = 4, 10
	s := ringSched(t, ringCap, Config{Workers: 1}, 1)
	var ids []string
	for i := 0; i < hits; i++ {
		ids = append(ids, submitFig7(t, s, 1).ID)
	}
	s.mu.Lock()
	retained := len(s.jobs)
	s.mu.Unlock()
	if retained != ringCap {
		t.Errorf("job table holds %d jobs, want the ring's %d", retained, ringCap)
	}
	listed := s.Jobs()
	if len(listed) != ringCap {
		t.Fatalf("Jobs() lists %d, want %d", len(listed), ringCap)
	}
	for i, js := range listed {
		if want := ids[hits-ringCap+i]; js.ID != want {
			t.Errorf("Jobs()[%d] = %s, want %s", i, js.ID, want)
		}
	}
	for i, id := range ids {
		_, ok := s.Job(id)
		if want := i >= hits-ringCap; ok != want {
			t.Errorf("Job(%s) found = %v, want %v", id, ok, want)
		}
	}
	if got, want := s.Status().Jobs, (JobCounts{Done: hits, Total: hits}); got != want {
		t.Errorf("Status().Jobs = %+v, want %+v", got, want)
	}
}

// TestHitRetainsNothingOnceRingFull: once the ring is full, a cache hit
// costs the heap nothing that outlives it — each new record evicts an old
// one. A job record is about 430 B, so a leak of one per hit shows.
func TestHitRetainsNothingOnceRingFull(t *testing.T) {
	const ringCap, hits = 64, 20000
	s := ringSched(t, ringCap, Config{}, 1, 2, 3)
	for i := 0; i < 2*ringCap; i++ {
		submitFig7(t, s, int64(i%3+1))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < hits; i++ {
		submitFig7(t, s, int64(i%3+1))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / hits; per > 32 {
		t.Errorf("heap grew %.1f B per hit, want ~0 once the ring is full", per)
	}
}

// TestBatchSummaryWithRingOfOne: with a ring of one, a batch member served
// at admission can be evicted by the next hit — here a concurrent flood of
// them — before SubmitBatch gets to attach it. Attaching through the job
// admission returned, not a table lookup, still counts every member, so
// every batch's summary arrives.
func TestBatchSummaryWithRingOfOne(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	// The flood evicts a batch (with its last member) as soon as
	// SubmitBatch lets go of it, so the state hook grabs each batch while
	// its members are admitted.
	var s *Scheduler
	var grab sync.Mutex
	seen := map[string]*batchStream{}
	s = ringSched(t, 1, Config{StateHook: func(JobStatus) {
		grab.Lock()
		defer grab.Unlock()
		s.mu.Lock()
		for id, b := range s.batches {
			seen[id] = b
		}
		s.mu.Unlock()
	}}, seeds...)
	stop := make(chan struct{})
	var flood sync.WaitGroup
	for w := 0; w < 2; w++ {
		flood.Add(1)
		go func() {
			defer flood.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.Submit(Request{Experiment: "fig7", Options: fig7Opts(1)})
				}
			}
		}()
	}
	defer func() { close(stop); flood.Wait() }()

	reqs := make([]Request, len(seeds))
	for i, seed := range seeds {
		reqs[i] = Request{Experiment: "fig7", Options: fig7Opts(seed)}
	}
	for round := 0; round < 20; round++ {
		bs, err := s.SubmitBatch(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		grab.Lock()
		b := seen[bs.ID]
		grab.Unlock()
		if b == nil {
			t.Fatalf("state hook never saw batch %s", bs.ID)
		}
		awaitSummary(t, b, len(seeds))
	}
}

// awaitSummary waits up to 5s for b's summary and checks that it counts
// members done.
func awaitSummary(t *testing.T, b *batchStream, members int) {
	t.Helper()
	sub, cancel := b.log.subscribe(0, "test", 2*members+2)
	defer cancel()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev := <-sub.ch:
			if ev.Type != EventBatch {
				continue
			}
			var sum struct{ Total, Done, Failed int }
			if err := json.Unmarshal(ev.Data, &sum); err != nil {
				t.Fatal(err)
			}
			if sum.Total != members || sum.Done != members || sum.Failed != 0 {
				t.Errorf("summary = %s, want all %d done", ev.Data, members)
			}
			return
		case <-deadline:
			t.Fatalf("batch %s summary did not arrive within 5s", b.id)
		}
	}
}

// TestAttachEvictedMember: a member finished and evicted before attach —
// the interleaving the flood above provokes — still counts toward its
// batch.
func TestAttachEvictedMember(t *testing.T) {
	s := ringSched(t, 1, Config{}, 1, 2)
	b := s.newBatch(2)
	for _, seed := range []int64{1, 2} {
		j, err := s.submit(context.Background(), Request{Experiment: "fig7", Options: fig7Opts(seed)})
		if err != nil {
			t.Fatal(err)
		}
		submitFig7(t, s, 1) // evicts j
		s.attach(j, b)
	}
	s.mu.Lock()
	s.releaseBatchLocked(b)
	s.mu.Unlock()
	awaitSummary(t, b, 2)
}

// TestBatchDroppedWithLastMember: a batch stays in the table while any of
// its members does, and leaves it with the eviction of the last one.
func TestBatchDroppedWithLastMember(t *testing.T) {
	s := ringSched(t, 2, Config{}, 1, 2)
	bs, err := s.SubmitBatch(context.Background(), []Request{
		{Experiment: "fig7", Options: fig7Opts(1)},
		{Experiment: "fig7", Options: fig7Opts(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	batches := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.batches)
	}
	submitFig7(t, s, 1) // evicts the first member
	if n := batches(); n != 1 {
		t.Fatalf("with one member retained: %d batches, want 1", n)
	}
	submitFig7(t, s, 1) // evicts the last member
	if n := batches(); n != 0 {
		t.Errorf("after the last member's eviction: %d batches, want 0", n)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/batches/" + bs.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("dropped batch's stream: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestEvictedJob404: every job route answers an evicted id with a 404 that
// names the retained window and the result address, an id never issued
// with the plain 404, and a watching client gives up on the first answer.
func TestEvictedJob404(t *testing.T) {
	s := ringSched(t, 1, Config{}, 1)
	evicted := submitFig7(t, s, 1).ID
	submitFig7(t, s, 1)
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		s.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()

	for _, c := range []struct{ id, want string }{
		{evicted, "left the retained window"},
		{"job-999", "service: no such job"},
		{"job-01", "service: no such job"},
		{"nope", "service: no such job"},
	} {
		for _, route := range []struct{ method, path string }{
			{http.MethodGet, "/v1/jobs/" + c.id},
			{http.MethodGet, "/v1/jobs/" + c.id + "/events"},
			{http.MethodGet, "/v1/jobs/" + c.id + "/trace"},
			{http.MethodDelete, "/v1/jobs/" + c.id},
		} {
			req, _ := http.NewRequest(route.method, srv.URL+route.path, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), c.want) {
				t.Errorf("%s %s: HTTP %d %s, want 404 naming %q", route.method, route.path, resp.StatusCode, body, c.want)
			}
			if c.id == evicted && !strings.Contains(string(body), "/v1/results/") {
				t.Errorf("%s %s: %s, want the result address", route.method, route.path, body)
			}
		}
	}

	requests.Store(0)
	c := &Client{BaseURL: srv.URL, HTTP: srv.Client(), Retry: RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond}}
	if _, err := c.WatchJob(context.Background(), evicted); err == nil || !strings.Contains(err.Error(), "retained window") {
		t.Errorf("WatchJob(evicted) = %v, want the retained-window error", err)
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("WatchJob(evicted) made %d requests, want 1 (no retry)", n)
	}
	requests.Store(0)
	if _, err := c.Wait(context.Background(), evicted, time.Millisecond, nil); err == nil || !strings.Contains(err.Error(), "retained window") {
		t.Errorf("Wait(evicted) = %v, want the retained-window error", err)
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("Wait(evicted) made %d requests, want 1 (no retry)", n)
	}
}

// hold parks the test-hold experiment until release closes.
var hold struct {
	sync.Mutex
	release chan struct{}
}

func init() {
	experiments.Register("test-hold", "blocks until released (internal test)", func(o experiments.Options) (*experiments.Result, error) {
		hold.Lock()
		release := hold.release
		hold.Unlock()
		select {
		case <-release:
		case <-o.Context.Done():
			return nil, o.Context.Err()
		}
		tb := report.NewTable("hold", "seed")
		tb.AddRow(fmt.Sprint(o.Seed))
		return &experiments.Result{ID: "test-hold", Title: "test", Tables: []*report.Table{tb}}, nil
	})
}

// TestShutdownAfterTrafficLeaksNothing: after 10 000 hits, 50 computed
// jobs, a live SSE subscriber and a batch through a ring of 64, the job and
// batch tables are within their bounds; Drain, begun while a job still runs
// with a subscriber open on its stream, returns promptly; and every
// goroutine the scheduler and its server started is gone.
func TestShutdownAfterTrafficLeaksNothing(t *testing.T) {
	const ringCap, hits, cold = 64, 10000, 50
	before := runtime.NumGoroutine()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var ended atomic.Int64
	s, err := New(Config{Store: st, Fingerprint: "test-fp", Workers: 2, QueueCap: cold + 8,
		StateHook: func(js JobStatus) {
			if js.State == StateDone || js.State == StateFailed {
				ended.Add(1)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	s.ringCap = ringCap
	srv := httptest.NewServer(s.Handler())
	client := &Client{BaseURL: srv.URL, HTTP: srv.Client()}

	// A subscriber on the first computed job, open while the rest run.
	first := submitFig7(t, s, 1000)
	watched := make(chan error, 1)
	go func() {
		_, err := client.WatchJob(context.Background(), first.ID)
		watched <- err
	}()
	for seed := int64(1001); seed < 1000+cold; seed++ {
		submitFig7(t, s, seed)
	}
	bs, err := s.SubmitBatch(context.Background(), []Request{
		{Experiment: "fig7", Options: fig7Opts(1000)},
		{Experiment: "fig7", Options: fig7Opts(2000)},
	})
	if err != nil || bs.Accepted != 2 {
		t.Fatalf("batch = %+v, %v", bs, err)
	}
	for deadline := time.Now().Add(30 * time.Second); ended.Load() < cold+2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d computed jobs ended", ended.Load(), cold+2)
		}
	}
	if err := <-watched; err != nil {
		t.Fatalf("watch: %v", err)
	}
	for i := 0; i < hits; i++ {
		submitFig7(t, s, 1000+int64(i%cold))
	}

	s.mu.Lock()
	jobs, batches := len(s.jobs), len(s.batches)
	s.mu.Unlock()
	inflight := int(s.counts.queued.Load() + s.counts.running.Load())
	if jobs > ringCap+inflight {
		t.Errorf("job table holds %d, want <= ring %d + in flight %d", jobs, ringCap, inflight)
	}
	if batches != 0 {
		t.Errorf("batch table holds %d after its members left the ring, want 0", batches)
	}

	// Shut down with a job running and a subscriber open on its stream.
	hold.Lock()
	hold.release = make(chan struct{})
	release := hold.release
	hold.Unlock()
	held, err := s.Submit(Request{Experiment: "test-hold", Options: fig7Opts(1)})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		js, err := client.WatchJob(context.Background(), held.ID)
		if err == nil && js.State != StateDone {
			err = fmt.Errorf("watched job ended %s", js.State)
		}
		watched <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); s.streams.active.Load() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the subscriber never connected")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()
	<-s.DrainBegun()
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v after %v", err, time.Since(start))
	}
	if err := <-watched; err != nil {
		t.Fatalf("watch across Drain: %v", err)
	}
	if n := ended.Load(); n != hits+cold+3 {
		t.Errorf("%d jobs ended, want %d", n, hits+cold+3)
	}
	srv.Close()
	srv.Client().CloseIdleConnections()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		n := runtime.NumGoroutine()
		if n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after shutdown, %d before start:\n%s", n, before, buf[:runtime.Stack(buf, true)])
		}
	}
	if _, err := s.Submit(Request{Experiment: "fig7", Options: fig7Opts(5000)}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain = %v, want ErrDraining", err)
	}
}
