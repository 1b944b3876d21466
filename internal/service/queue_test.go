package service_test

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/service"
)

// submitQ submits with full queuing identity (tenant, priority, deadline).
func submitQ(t *testing.T, s *testSched, exp string, seed int64, tenant string, prio int, deadline time.Duration) service.JobStatus {
	t.Helper()
	js, err := s.Submit(service.Request{
		Experiment: exp,
		Options:    experiments.Options{Seed: seed, Runs: 1, Quick: true}.Key(),
		Tenant:     tenant,
		Priority:   prio,
		Deadline:   deadline,
	})
	if err != nil {
		t.Fatalf("submit %s seed %d: %v", exp, seed, err)
	}
	return js
}

// finishOrder drains lifecycle events until every listed job is terminal and
// returns their completion order. With Workers=1 completion order is dequeue
// order, which is what the queue-policy tests assert on.
func finishOrder(t *testing.T, s *testSched, ids ...string) []string {
	t.Helper()
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	var order []string
	deadline := time.After(30 * time.Second)
	for len(order) < len(ids) {
		select {
		case js := <-s.events:
			if terminal(js.State) && want[js.ID] {
				delete(want, js.ID)
				order = append(order, js.ID)
			}
		case <-deadline:
			t.Fatalf("jobs did not finish; still waiting on %v", want)
		}
	}
	return order
}

// blockWorker parks the single worker inside a test-block job and returns
// the release channel plus the blocker's job ID. Everything submitted while
// blocked queues up, so tests control exactly what the dequeue policy sees.
func blockWorker(t *testing.T, s *testSched, seed int64) (chan struct{}, string) {
	t.Helper()
	started, release := resetBlock()
	js := submit(t, s, "test-block", seed)
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("blocker job never started")
	}
	return release, js.ID
}

func TestQueuePriorityOrder(t *testing.T) {
	s := newSched(t, service.Config{Workers: 1})
	release, blocker := blockWorker(t, s, 900)

	low := submitQ(t, s, "test-block", 901, "", 0, 0)
	high := submitQ(t, s, "test-block", 902, "", 5, 0)
	mid := submitQ(t, s, "test-block", 903, "", 2, 0)
	close(release)

	order := finishOrder(t, s, blocker, low.ID, high.ID, mid.ID)
	want := []string{blocker, high.ID, mid.ID, low.ID}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order = %v, want %v (priority order)", order, want)
		}
	}
	if st, _ := s.Job(high.ID); st.Priority != 5 || st.Tenant != "" {
		t.Errorf("status lost queuing identity: %+v", st)
	}
}

func TestQueueDeadlineOrder(t *testing.T) {
	s := newSched(t, service.Config{Workers: 1})
	release, blocker := blockWorker(t, s, 910)

	open := submitQ(t, s, "test-block", 911, "", 0, 0)
	late := submitQ(t, s, "test-block", 912, "", 0, 10*time.Second)
	soon := submitQ(t, s, "test-block", 913, "", 0, time.Second)
	close(release)

	order := finishOrder(t, s, blocker, open.ID, late.ID, soon.ID)
	want := []string{blocker, soon.ID, late.ID, open.ID}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order = %v, want %v (EDF, deadlined before open-ended)", order, want)
		}
	}
}

// TestQueueTenantFairness floods the queue from one tenant and checks a
// competing tenant's single job is served second, not behind the flood.
func TestQueueTenantFairness(t *testing.T) {
	s := newSched(t, service.Config{Workers: 1})
	release, blocker := blockWorker(t, s, 920)

	var flood []string
	for i := int64(0); i < 4; i++ {
		flood = append(flood, submitQ(t, s, "test-block", 921+i, "tenant-a", 0, 0).ID)
	}
	b := submitQ(t, s, "test-block", 930, "tenant-b", 0, 0)

	if depths := s.Status().Queue.Tenants; depths["tenant-a"] != 4 || depths["tenant-b"] != 1 {
		t.Errorf("queue tenant depths = %v, want tenant-a:4 tenant-b:1", depths)
	}
	close(release)

	ids := append(append([]string{blocker}, flood...), b.ID)
	order := finishOrder(t, s, ids...)
	// tenant-a wins the first pop on submission order, then tenant-b's
	// fair-share turn comes immediately — not after the whole flood.
	want := []string{blocker, flood[0], b.ID, flood[1], flood[2], flood[3]}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order = %v, want %v (tenant round-robin)", order, want)
		}
	}
}

// TestQueueAgingPreventsStarvation gives a low-priority job a head start of
// many aging steps and checks it outranks a fresh high-priority job: the
// no-starvation guarantee.
func TestQueueAgingPreventsStarvation(t *testing.T) {
	s := newSched(t, service.Config{Workers: 1, AgingStep: 10 * time.Millisecond})
	release, blocker := blockWorker(t, s, 940)

	low := submitQ(t, s, "test-block", 941, "", 0, 0)
	// Let the low-priority job age ~10 steps; the fresh job's priority of 3
	// cannot catch up since both age at the same rate afterwards.
	time.Sleep(120 * time.Millisecond)
	high := submitQ(t, s, "test-block", 942, "", 3, 0)
	close(release)

	order := finishOrder(t, s, blocker, low.ID, high.ID)
	want := []string{blocker, low.ID, high.ID}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order = %v, want %v (aged job first)", order, want)
		}
	}
}

// TestQueueBatchCoalescing queues three identical submissions (two tenants)
// and checks one simulation serves all three: the leader computes, the
// followers finish coalesced with the same result key.
func TestQueueBatchCoalescing(t *testing.T) {
	s := newSched(t, service.Config{Workers: 1})
	release, _ := blockWorker(t, s, 950)

	leader := submitQ(t, s, "fig7", 951, "tenant-a", 0, 0)
	f1 := submitQ(t, s, "fig7", 951, "tenant-a", 0, 0)
	f2 := submitQ(t, s, "fig7", 951, "tenant-b", 0, 0)
	if f1.CacheKey != leader.CacheKey || f2.CacheKey != leader.CacheKey {
		t.Fatalf("identical submissions got different cache keys")
	}
	close(release)

	ld := waitJob(t, s, leader.ID)
	w1 := waitJob(t, s, f1.ID)
	w2 := waitJob(t, s, f2.ID)
	if ld.State != service.StateDone || ld.Coalesced {
		t.Fatalf("leader = %+v, want done and not coalesced", ld)
	}
	for _, f := range []service.JobStatus{w1, w2} {
		if f.State != service.StateDone || !f.Coalesced || !f.Cached {
			t.Fatalf("follower = %+v, want done, coalesced, cached", f)
		}
		if f.ResultKey != ld.ResultKey {
			t.Fatalf("follower result key %s != leader %s", f.ResultKey, ld.ResultKey)
		}
	}
	st := s.Status()
	if st.Scheduler.Coalesced != 2 || st.Scheduler.CoalescedBatches != 1 {
		t.Errorf("coalesce counters = %d jobs / %d batches, want 2 / 1",
			st.Scheduler.Coalesced, st.Scheduler.CoalescedBatches)
	}
}

// TestStatusSchedSection checks the sweep pool has no section of its own
// in /statusz or /metricsz: it claims jobs from one counter and keeps no
// counters, so after a parallel sweep neither surface names it.
func TestStatusSchedSection(t *testing.T) {
	s := newSched(t, service.Config{Workers: 1, SimParallelism: 4})
	done := waitJob(t, s, submit(t, s, "fig7", 960).ID)
	if done.State != service.StateDone {
		t.Fatalf("job state = %s (%s)", done.State, done.Error)
	}
	raw, err := json.Marshal(s.Status())
	if err != nil {
		t.Fatal(err)
	}
	var status map[string]json.RawMessage
	if err := json.Unmarshal(raw, &status); err != nil {
		t.Fatal(err)
	}
	if _, ok := status["sched"]; ok {
		t.Errorf("/statusz carries a sched section: %s", status["sched"])
	}
	var metrics strings.Builder
	if err := s.WriteMetricsText(&metrics); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(metrics.String(), "qsm_sched_") {
		t.Errorf("/metricsz carries qsm_sched_ series:\n%s", metrics.String())
	}
}
