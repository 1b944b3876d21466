package service

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/store"
)

// TestTerminalJobContextCancelled: every way a job ends — done, failed,
// cancelled while queued, served at admission — cancels its context, so no
// finished job stays a child of the scheduler's root context.
func TestTerminalJobContextCancelled(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// The first attempt of all panics; with no retries that job fails.
	inj := faults.New(faults.Config{Seed: 1, Rules: map[faults.Class]faults.Rule{faults.WorkerPanic: {Every: 1, Max: 1}}})
	const holdSeed = 3
	running, release := make(chan struct{}), make(chan struct{})
	ended := make(chan JobStatus, 16)
	s, err := New(Config{Store: st, Workers: 1, Fingerprint: "test-fp", Faults: inj, StateHook: func(js JobStatus) {
		switch {
		case js.State == StateRunning && js.Options.Seed == holdSeed:
			// Hold the only worker, so the next submission stays queued.
			running <- struct{}{}
			<-release
		case js.State == StateDone || js.State == StateFailed:
			ended <- js
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	submit := func(seed int64) JobStatus {
		t.Helper()
		js, err := s.Submit(Request{Experiment: "fig7", Options: experiments.Options{Seed: seed, Runs: 1, Quick: true}.Key()})
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	wait := func(id string) JobStatus {
		t.Helper()
		deadline := time.After(30 * time.Second)
		for {
			select {
			case js := <-ended:
				if js.ID == id {
					return js
				}
			case <-deadline:
				t.Fatalf("job %s did not end", id)
			}
		}
	}

	failed := wait(submit(1).ID)
	done := wait(submit(2).ID)
	hit := submit(2)
	holder := submit(holdSeed)
	<-running
	cancelled := submit(4)
	s.Cancel(cancelled.ID)
	close(release)
	wait(holder.ID)
	cancelled = wait(cancelled.ID)

	for _, c := range []struct {
		name string
		js   JobStatus
		ok   bool
	}{
		{"failed", failed, failed.State == StateFailed && strings.Contains(failed.Error, "panicked")},
		{"done", done, done.State == StateDone && !done.Cached},
		{"admission hit", hit, hit.State == StateDone && hit.Cached},
		{"cancelled", cancelled, cancelled.State == StateFailed && strings.Contains(cancelled.Error, context.Canceled.Error())},
	} {
		if !c.ok {
			t.Errorf("%s job ended %s, cached %v, error %q", c.name, c.js.State, c.js.Cached, c.js.Error)
		}
		s.mu.Lock()
		j := s.jobs[c.js.ID]
		s.mu.Unlock()
		select {
		case <-j.ctx.Done():
			if !errors.Is(j.ctx.Err(), context.Canceled) {
				t.Errorf("%s job: context ended with %v, want cancelled", c.name, j.ctx.Err())
			}
		case <-time.After(10 * time.Second):
			t.Errorf("%s job %s is %s but its context was never cancelled", c.name, c.js.ID, c.js.State)
		}
	}
}
