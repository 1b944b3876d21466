package service

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/store"
)

// TestQueueTenantTableBounded: in anonymous mode every distinct tenant name
// gets a record in the queue, and the record leaves once the tenant has
// nothing queued, so ten thousand names that submit and finish leave the
// table empty.
func TestQueueTenantTableBounded(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// At most window jobs are outstanding at once, so the queue has room
	// for every submission and stays short.
	const names, window = 10_000, 64
	ended := make(chan struct{}, names)
	s, err := New(Config{Store: st, Fingerprint: "test-fp", QueueCap: window, StateHook: func(js JobStatus) {
		if js.State == StateDone || js.State == StateFailed {
			ended <- struct{}{}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < names; i++ {
		if i >= window {
			<-ended
		}
		if _, err := s.Submit(Request{Experiment: "test-instant", Tenant: fmt.Sprintf("tenant-%d", i),
			Options: experiments.Options{Seed: int64(i)}.Key()}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.counts.snapshot(); got.Done != names {
		t.Fatalf("counts %+v, want %d done", got, names)
	}
	s.queue.mu.Lock()
	defer s.queue.mu.Unlock()
	if n := len(s.queue.tenants); n != 0 {
		t.Errorf("%d tenants remain in the queue's table after every job finished, want 0", n)
	}
	if n := len(s.queue.running); n != 0 {
		t.Errorf("%d cache keys still held after every job finished, want 0", n)
	}
}

// TestQueueEmptiedTenantRanksNew: a tenant whose queue emptied has no
// record left, so its next job ties with a tenant never served and beats a
// tenant served since, even one served before it.
func TestQueueEmptiedTenantRanksNew(t *testing.T) {
	q := newAdmitQueue(8, time.Hour)
	seq := 0
	add := func(tenant string) *job {
		seq++
		j := &job{seq: seq, tenant: tenant, cacheKey: fmt.Sprint(seq), created: time.Now()}
		if !q.reserve(tenant) {
			t.Fatal("queue full")
		}
		q.push(j)
		return j
	}
	pop := func() *job {
		j, ok := q.pop()
		if !ok {
			t.Fatal("queue closed")
		}
		q.finish(j.cacheKey)
		return j
	}
	a1, b1, a2 := add("a"), add("b"), add("a")
	for _, want := range []*job{a1, b1} {
		if got := pop(); got != want {
			t.Fatalf("popped job %d, want %d", got.seq, want.seq)
		}
	}
	// b's queue is empty: its record is gone, though a was served earlier.
	if _, ok := q.tenants["b"]; ok {
		t.Fatal("emptied tenant b still has a record")
	}
	b2 := add("b")
	for _, want := range []*job{b2, a2} {
		if got := pop(); got != want {
			t.Fatalf("popped job %d, want %d (an emptied tenant ranks like a new one)", got.seq, want.seq)
		}
	}
}

// TestQueueHoldsRunningKey: pop skips a job whose cache key a popped job
// still holds, and finish makes it eligible again.
func TestQueueHoldsRunningKey(t *testing.T) {
	q := newAdmitQueue(8, time.Hour)
	for i, key := range []string{"k", "k", "other"} {
		if !q.reserve("") {
			t.Fatal("queue full")
		}
		q.push(&job{seq: i + 1, cacheKey: key, created: time.Now()})
	}
	first, _ := q.pop()
	if next, _ := q.pop(); next.seq != 3 {
		t.Fatalf("popped job %d while key k runs, want job 3", next.seq)
	}
	q.finish("other")
	q.finish(first.cacheKey)
	if dup, _ := q.pop(); dup.seq != 2 {
		t.Fatalf("popped job %d after k finished, want its duplicate, job 2", dup.seq)
	}
	q.finish("k")
	q.close()
	if _, ok := q.pop(); ok {
		t.Fatal("closed, empty queue handed out a job")
	}
}
