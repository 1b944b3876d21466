package service_test

// Batch submission and aggregate-stream tests, plus the leader-cancel
// regressions: cancelling the first of several identical jobs must not
// taint the duplicates queued behind it — the next one computes, and one
// simulation still serves everyone behind it.

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// batchSummary is the terminal EventBatch payload.
type batchSummary struct {
	Batch  string `json:"batch"`
	Total  int    `json:"total"`
	Done   int    `json:"done"`
	Failed int    `json:"failed"`
}

// TestBatchSubmitMixedOutcomes: one request carrying admissible jobs and an
// unknown experiment gets per-item outcomes — the bad item lands with its
// HTTP-shaped code, the good items run, and the aggregate stream closes
// with a summary counting only the admitted members.
func TestBatchSubmitMixedOutcomes(t *testing.T) {
	_, c := newServer(t, service.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	bs, err := c.SubmitBatch(ctx, []service.SubmitRequest{
		{Experiment: "fig7", Seed: 201, Runs: 1, Quick: true},
		{Experiment: "no-such-experiment", Seed: 202},
		{Experiment: "test-fail", Seed: 203, Runs: 1, Quick: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Accepted != 2 || bs.Rejected != 1 {
		t.Fatalf("batch = %d accepted / %d rejected, want 2/1 (%+v)", bs.Accepted, bs.Rejected, bs)
	}
	if !strings.HasPrefix(bs.EventsPath, "/v1/batches/") || !strings.HasSuffix(bs.EventsPath, "/events") {
		t.Errorf("events path = %q", bs.EventsPath)
	}
	if len(bs.Jobs) != 3 {
		t.Fatalf("per-item outcomes = %d, want 3", len(bs.Jobs))
	}
	if bs.Jobs[0].Job == nil || bs.Jobs[0].Error != "" {
		t.Errorf("item 0 = %+v, want an admitted job", bs.Jobs[0])
	}
	if bs.Jobs[1].Job != nil || bs.Jobs[1].Code != 400 || !strings.Contains(bs.Jobs[1].Error, "unknown experiment") {
		t.Errorf("item 1 = %+v, want a 400 rejection", bs.Jobs[1])
	}
	if bs.Jobs[2].Job == nil {
		t.Errorf("item 2 = %+v, want an admitted (if doomed) job", bs.Jobs[2])
	}

	// The aggregate stream carries every member's lifecycle and closes with
	// the summary: 2 admitted members, one done, one failed.
	res, err := c.WatchBatch(ctx, bs.ID, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sum batchSummary
	if err := json.Unmarshal(res.Summary, &sum); err != nil {
		t.Fatalf("summary payload %q: %v", res.Summary, err)
	}
	if sum.Batch != bs.ID || sum.Total != 2 || sum.Done != 1 || sum.Failed != 1 {
		t.Errorf("batch summary = %+v, want total 2, done 1, failed 1 on %s", sum, bs.ID)
	}
}

// TestBatchShapeErrors: empty and oversized batches are rejected wholesale.
func TestBatchShapeErrors(t *testing.T) {
	s, c := newServer(t, service.Config{})
	ctx := context.Background()

	if _, err := c.SubmitBatch(ctx, nil); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Errorf("empty batch: err = %v, want HTTP 400", err)
	}
	huge := make([]service.SubmitRequest, 257)
	for i := range huge {
		huge[i] = service.SubmitRequest{Experiment: "fig7", Seed: int64(i), Runs: 1, Quick: true}
	}
	if _, err := c.SubmitBatch(ctx, huge); err == nil || !strings.Contains(err.Error(), "HTTP 400") {
		t.Errorf("oversized batch: err = %v, want HTTP 400", err)
	}
	// Typed errors hold on the scheduler API too.
	if _, err := s.SubmitBatch(ctx, nil); !errors.Is(err, service.ErrBatchEmpty) {
		t.Errorf("SubmitBatch(nil) = %v, want ErrBatchEmpty", err)
	}
}

// TestBatchCoalescesIdenticalMembers: identical submissions inside one
// batch share one simulation, exactly like identical submissions across
// requests: the other members are served from the store.
func TestBatchCoalescesIdenticalMembers(t *testing.T) {
	started, release := resetBlock()
	_, c := newServer(t, service.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Occupy the worker so the batch members queue together.
	blocker, err := c.Submit(ctx, service.SubmitRequest{Experiment: "test-block", Seed: 210, Runs: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	bs, err := c.SubmitBatch(ctx, []service.SubmitRequest{
		{Experiment: "test-block", Seed: 211, Runs: 1, Quick: true},
		{Experiment: "test-block", Seed: 211, Runs: 1, Quick: true},
		{Experiment: "test-block", Seed: 211, Runs: 1, Quick: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Accepted != 3 {
		t.Fatalf("batch accepted %d, want 3", bs.Accepted)
	}
	close(release)
	res, err := c.WatchBatch(ctx, bs.ID, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sum batchSummary
	if err := json.Unmarshal(res.Summary, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Total != 3 || sum.Done != 3 || sum.Failed != 0 {
		t.Fatalf("summary = %+v, want all 3 done", sum)
	}

	// Exactly one member computed; the other two were served from it.
	var computed, cached int
	for _, item := range bs.Jobs {
		if js := waitTerminal(t, c, item.Job.ID); js.Cached {
			cached++
		} else {
			computed++
		}
	}
	if computed != 1 || cached != 2 {
		t.Errorf("batch ran %d computes with %d cached, want 1 and 2", computed, cached)
	}
	waitTerminal(t, c, blocker.ID)
}

// TestBatchLeaderCancelBeforeRun: the first of three identical jobs is
// cancelled while still queued. The second must compute; the third is
// served from its result.
func TestBatchLeaderCancelBeforeRun(t *testing.T) {
	started, release := resetBlock()
	s := newSched(t, service.Config{Workers: 1, QueueCap: 16})

	blocker := submit(t, s, "test-block", 220)
	<-started

	leader := submit(t, s, "test-block", 221)
	f1 := submit(t, s, "test-block", 221)
	f2 := submit(t, s, "test-block", 221)
	if !s.Cancel(leader.ID) {
		t.Fatal("cancel returned false")
	}
	close(release)

	if js := waitJob(t, s, leader.ID); js.State != service.StateFailed || !strings.Contains(js.Error, context.Canceled.Error()) {
		t.Errorf("cancelled leader = %s (%q), want failed with context.Canceled", js.State, js.Error)
	}
	j1 := waitJob(t, s, f1.ID)
	if j1.State != service.StateDone || j1.Cached {
		t.Errorf("promoted follower = %s cached=%v, want done via its own run", j1.State, j1.Cached)
	}
	j2 := waitJob(t, s, f2.ID)
	if j2.State != service.StateDone || !j2.Cached {
		t.Errorf("second follower = %s cached=%v, want done from the promoted leader's result", j2.State, j2.Cached)
	}
	waitJob(t, s, blocker.ID)
}

// TestBatchLeaderCancelMidRun: the first job is cancelled while executing.
// Its attempt unwinds with the context error, the second computes, and the
// third is served from its result.
func TestBatchLeaderCancelMidRun(t *testing.T) {
	started1, release1 := resetBlock()
	s := newSched(t, service.Config{Workers: 1, QueueCap: 16})

	blocker := submit(t, s, "test-block", 230)
	<-started1

	// Re-arm: the batch members block on fresh channels, independent of the
	// blocker already parked on the old ones.
	started2, release2 := resetBlock()
	leader := submit(t, s, "test-block", 231)
	f1 := submit(t, s, "test-block", 231)
	f2 := submit(t, s, "test-block", 231)

	close(release1) // blocker finishes; the worker pops the leader
	<-started2      // leader is mid-run
	if !s.Cancel(leader.ID) {
		t.Fatal("cancel returned false")
	}
	if js := waitJob(t, s, leader.ID); js.State != service.StateFailed || !strings.Contains(js.Error, context.Canceled.Error()) {
		t.Errorf("mid-run cancelled leader = %s (%q), want failed with context.Canceled", js.State, js.Error)
	}
	<-started2 // the promoted follower's own attempt
	close(release2)

	j1 := waitJob(t, s, f1.ID)
	if j1.State != service.StateDone || j1.Cached {
		t.Errorf("promoted follower = %s cached=%v, want done via its own run", j1.State, j1.Cached)
	}
	j2 := waitJob(t, s, f2.ID)
	if j2.State != service.StateDone || !j2.Cached {
		t.Errorf("second follower = %s cached=%v, want done from the promoted leader's result", j2.State, j2.Cached)
	}
	waitJob(t, s, blocker.ID)
}
