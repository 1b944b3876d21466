package service

// TestJobTransitions drives a job down every path the scheduler has, to a
// terminal state or to a rejection, and checks what each observer of the
// job's lifecycle saw: the state hook, the job's event log, the per-state
// counts, the tenant's active slots, the ring of retained finished jobs and
// a batch's aggregate stream. Each must see each transition exactly once,
// in order, and agree with the others.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/store"
)

const (
	// transTenant is the quota-holding tenant every labelled job runs as.
	transTenant = "t"
	// hitSeed is the test-instant seed whose result the store already holds.
	hitSeed = 1
	// blockSeed is the seed of the blocker, a job whose running transition
	// holds the one worker until the case releases it.
	blockSeed = 99
	// parkSeed is the seed of the owner a case parks inside its run with
	// park, and of its duplicates.
	parkSeed = 5
)

// parking is the test-park experiment's switch. Armed, the next run signals
// parked and then waits inside the simulation for release or for its
// context to end, as a long sweep unwinds at its next point. Every other
// run returns at once.
var parking struct {
	armed           atomic.Bool
	parked, release chan struct{}
}

func init() {
	experiments.Register("test-park", "parks the run it is armed for (internal test)", func(o experiments.Options) (*experiments.Result, error) {
		if !parking.armed.CompareAndSwap(true, false) {
			return &experiments.Result{ID: "test-park", Title: "test"}, nil
		}
		parking.parked <- struct{}{}
		select {
		case <-parking.release:
			return &experiments.Result{ID: "test-park", Title: "test"}, nil
		case <-o.Context.Done():
			return nil, o.Context.Err()
		}
	})
}

// transitionRecorder is the state hook under test. Inside the hook it also
// checks the counts and the tenant's slots against the states the hook has
// reported so far, so an observer that runs before the state it reports
// has fully moved shows up as a mismatch.
type transitionRecorder struct {
	s                *Scheduler
	running, release chan struct{}
	// ended closes at the first terminal hook call.
	ended chan struct{}
	end   sync.Once
	// onQueued, when set, runs inside the hook call of a queued transition.
	onQueued func(JobStatus)

	mu       sync.Mutex
	seen     map[string][]JobStatus // hook calls per job id, in order
	last     map[string]JobStatus   // each job's latest hooked status
	mismatch []string
}

func (r *transitionRecorder) hook(js JobStatus) {
	r.mu.Lock()
	r.seen[js.ID] = append(r.seen[js.ID], js)
	r.last[js.ID] = js
	var want JobCounts
	active := 0
	for _, m := range r.last {
		switch m.State {
		case StateQueued:
			want.Queued++
		case StateRunning:
			want.Running++
		case StateDone:
			want.Done++
		case StateFailed:
			want.Failed++
		}
		if m.Tenant == transTenant && (m.State == StateQueued || m.State == StateRunning) {
			active++
		}
	}
	want.Total = want.Queued + want.Running + want.Done + want.Failed
	if got := r.s.counts.snapshot(); got != want {
		r.mismatch = append(r.mismatch, fmt.Sprintf("hook at %s %s: counts %+v, want %+v", js.ID, stateLabel(js), got, want))
	}
	if got := r.s.tenants.status(nil)[transTenant].Active; got != active {
		r.mismatch = append(r.mismatch, fmt.Sprintf("hook at %s %s: tenant holds %d slots, want %d", js.ID, stateLabel(js), got, active))
	}
	r.mu.Unlock()
	switch {
	case js.Options.Seed == blockSeed && js.State == StateRunning:
		r.running <- struct{}{}
		<-r.release
	case js.State == StateDone || js.State == StateFailed:
		r.end.Do(func() { close(r.ended) })
	case r.onQueued != nil && js.State == StateQueued:
		r.onQueued(js)
	}
}

// stallQueued holds a queued transition's hook call open until a job ends
// or a grace period passes, and checks the job did not move meanwhile: a
// worker able to pop the job while its queued transition is still being
// published would run it to its end.
func (r *transitionRecorder) stallQueued(js JobStatus) {
	select {
	case <-r.ended:
	case <-time.After(50 * time.Millisecond):
	}
	if now, _ := r.s.Job(js.ID); now.State != StateQueued {
		r.mu.Lock()
		r.mismatch = append(r.mismatch, fmt.Sprintf("job %s reached %s while its queued transition was being published", js.ID, now.State))
		r.mu.Unlock()
	}
}

// stateLabel names one observed status: its state, the attempt number of a
// running one, how a done one was served and whether a failed one was
// cancelled.
func stateLabel(js JobStatus) string {
	switch {
	case js.State == StateRunning:
		return fmt.Sprintf("running#%d", js.Attempt)
	case js.State == StateDone && js.Cached:
		return "done(cached)"
	case js.State == StateFailed && strings.Contains(js.Error, context.Canceled.Error()):
		return "failed(cancelled)"
	}
	return string(js.State)
}

// transitionHarness runs one case: a scheduler with one worker unless the
// case asks for more, a store
// holding hitSeed's result, and job labels for the case to refer to.
type transitionHarness struct {
	t        *testing.T
	s        *Scheduler
	r        *transitionRecorder
	ids      map[string]string // label -> job id
	released sync.Once
	unparked sync.Once
}

func newTransitionHarness(t *testing.T, cfg Config) *transitionHarness {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store, cfg.Fingerprint = st, "test-fp"
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.Tenants == nil {
		cfg.Tenants = []TenantConfig{{Name: transTenant, Key: "key-t", MaxActive: 8}}
	}
	opts := experiments.Options{Seed: hitSeed}.Key()
	if err := st.Put(&store.Entry{Key: store.ResultKey("test-instant", opts, cfg.Fingerprint),
		Experiment: "test-instant", Options: opts, Fingerprint: cfg.Fingerprint, Tables: "cached\n"}); err != nil {
		t.Fatal(err)
	}
	r := &transitionRecorder{running: make(chan struct{}), release: make(chan struct{}), ended: make(chan struct{}),
		seen: map[string][]JobStatus{}, last: map[string]JobStatus{}}
	cfg.StateHook = r.hook
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.s = s
	h := &transitionHarness{t: t, s: s, r: r, ids: map[string]string{}}
	parking.armed.Store(false)
	// One buffered signal: the one armed run never blocks on it.
	parking.parked, parking.release = make(chan struct{}, 1), make(chan struct{})
	t.Cleanup(func() {
		h.unblock()
		h.unpark()
		h.drain(10 * time.Second)
	})
	return h
}

func transReq(seed int64) Request {
	return Request{Experiment: "test-instant", Options: experiments.Options{Seed: seed}.Key(), Tenant: transTenant}
}

// parkReq is the parked owner's request; its duplicates send the same.
func parkReq() Request {
	return Request{Experiment: "test-park", Options: experiments.Options{Seed: parkSeed}.Key(), Tenant: transTenant}
}

// submit admits a job under label, or returns the rejection.
func (h *transitionHarness) submit(label string, seed int64) error {
	return h.submitReq(label, transReq(seed))
}

func (h *transitionHarness) submitReq(label string, req Request) error {
	js, err := h.s.Submit(req)
	if err == nil {
		h.ids[label] = js.ID
	}
	return err
}

func (h *transitionHarness) mustSubmit(label string, seed int64) {
	h.t.Helper()
	if err := h.submit(label, seed); err != nil {
		h.t.Fatalf("submit %s: %v", label, err)
	}
}

// duplicate admits a job under label with the parked owner's cache key.
func (h *transitionHarness) duplicate(label string) {
	h.t.Helper()
	if err := h.submitReq(label, parkReq()); err != nil {
		h.t.Fatalf("submit %s: %v", label, err)
	}
}

// park submits the owner under label and returns once it is parked inside
// its simulation.
func (h *transitionHarness) park(label string) {
	h.t.Helper()
	parking.armed.Store(true)
	if err := h.submitReq(label, parkReq()); err != nil {
		h.t.Fatal(err)
	}
	select {
	case <-parking.parked:
	case <-time.After(10 * time.Second):
		h.t.Fatal("the owner never parked")
	}
}

// unpark lets the parked owner's simulation finish; idempotent.
func (h *transitionHarness) unpark() { h.unparked.Do(func() { close(parking.release) }) }

// firstEnd waits for the first job to end. With the owner parked on one of
// two workers, that is a distinct job the other worker ran: a duplicate
// waiting for its key must not hold that worker.
func (h *transitionHarness) firstEnd() {
	h.t.Helper()
	select {
	case <-h.r.ended:
	case <-time.After(10 * time.Second):
		h.t.Error("no job ended while the owner ran: its duplicate holds the other worker")
	}
}

// block submits the blocker (no tenant, so it holds no slot) and returns
// once it is running on the only worker.
func (h *transitionHarness) block() {
	h.t.Helper()
	js, err := h.s.Submit(Request{Experiment: "test-instant", Options: experiments.Options{Seed: blockSeed}.Key()})
	if err != nil {
		h.t.Fatal(err)
	}
	h.ids["blocker"] = js.ID
	select {
	case <-h.r.running:
	case <-time.After(10 * time.Second):
		h.t.Fatal("the blocker never ran")
	}
}

// unblock releases the blocker; idempotent.
func (h *transitionHarness) unblock() { h.released.Do(func() { close(h.r.release) }) }

func (h *transitionHarness) cancel(label string) {
	if !h.s.Cancel(h.ids[label]) {
		h.t.Fatalf("cancel %s: not retained", label)
	}
}

// drain waits for the scheduler to finish every admitted job.
func (h *transitionHarness) drain(d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return h.s.Drain(ctx)
}

type transitionCase struct {
	name string
	cfg  Config
	// panics arms a worker panic on the case's first attempt.
	panics bool
	run    func(h *transitionHarness)
	// want is every job's hook sequence by label; no other job may reach
	// the hook.
	want   map[string]string
	counts JobCounts
	// batch is the aggregate stream the case's batch carried, if any.
	batch string
}

var transitionCases = []transitionCase{
	{
		name:   "hit at admission",
		run:    func(h *transitionHarness) { h.mustSubmit("A", hitSeed) },
		want:   map[string]string{"A": "done(cached)"},
		counts: JobCounts{Done: 1, Total: 1},
	},
	{
		name: "queued running done",
		run: func(h *transitionHarness) {
			h.r.onQueued = h.r.stallQueued
			h.mustSubmit("A", 2)
		},
		want:   map[string]string{"A": "queued running#1 done"},
		counts: JobCounts{Done: 1, Total: 1},
	},
	{
		name:   "retried",
		cfg:    Config{JobRetries: 1},
		panics: true,
		run:    func(h *transitionHarness) { h.mustSubmit("A", 2) },
		want:   map[string]string{"A": "queued running#1 running#2 done"},
		counts: JobCounts{Done: 1, Total: 1},
	},
	{
		name:   "failed",
		panics: true,
		run:    func(h *transitionHarness) { h.mustSubmit("A", 2) },
		want:   map[string]string{"A": "queued running#1 failed"},
		counts: JobCounts{Failed: 1, Total: 1},
	},
	{
		name: "cancelled before start",
		run: func(h *transitionHarness) {
			h.block()
			h.mustSubmit("A", 2)
			h.cancel("A")
			h.unblock()
		},
		want:   map[string]string{"blocker": "queued running#1 done", "A": "queued failed(cancelled)"},
		counts: JobCounts{Done: 1, Failed: 1, Total: 2},
	},
	{
		name: "coalesced follower",
		run: func(h *transitionHarness) {
			h.block()
			h.mustSubmit("A", 2)
			h.mustSubmit("B", 2)
			h.unblock()
		},
		want: map[string]string{"blocker": "queued running#1 done",
			"A": "queued running#1 done", "B": "queued running#1 done(cached)"},
		counts: JobCounts{Done: 3, Total: 3},
	},
	{
		name: "cancelled follower",
		run: func(h *transitionHarness) {
			h.block()
			h.mustSubmit("A", 2)
			h.mustSubmit("B", 2)
			h.cancel("B")
			h.unblock()
		},
		want: map[string]string{"blocker": "queued running#1 done",
			"A": "queued running#1 done", "B": "queued failed(cancelled)"},
		counts: JobCounts{Done: 2, Failed: 1, Total: 3},
	},
	{
		name: "cancelled leader, follower promoted",
		run: func(h *transitionHarness) {
			h.block()
			h.mustSubmit("A", 2)
			h.mustSubmit("B", 2)
			h.cancel("A")
			h.unblock()
		},
		want: map[string]string{"blocker": "queued running#1 done",
			"A": "queued failed(cancelled)", "B": "queued running#1 done"},
		counts: JobCounts{Done: 2, Failed: 1, Total: 3},
	},
	{
		// The owner fails; its duplicate was never cancelled, so it
		// computes for itself.
		name: "owner cancelled mid-run, duplicate computes",
		cfg:  Config{Workers: 2},
		run: func(h *transitionHarness) {
			h.park("A")
			h.duplicate("B")
			h.mustSubmit("C", 3)
			h.firstEnd()
			h.cancel("A")
		},
		want: map[string]string{"A": "queued running#1 failed(cancelled)",
			"B": "queued running#1 done", "C": "queued running#1 done"},
		counts: JobCounts{Done: 2, Failed: 1, Total: 3},
	},
	{
		name: "duplicate cancelled while its key runs",
		cfg:  Config{Workers: 2},
		run: func(h *transitionHarness) {
			h.park("A")
			h.duplicate("B")
			h.mustSubmit("C", 3)
			h.firstEnd()
			h.cancel("B")
			h.unpark()
		},
		want: map[string]string{"A": "queued running#1 done",
			"B": "queued failed(cancelled)", "C": "queued running#1 done"},
		counts: JobCounts{Done: 2, Failed: 1, Total: 3},
	},
	{
		name: "duplicate queued while its key runs",
		cfg:  Config{Workers: 2},
		run: func(h *transitionHarness) {
			h.park("A")
			h.duplicate("B")
			h.mustSubmit("C", 3)
			h.firstEnd()
			if js, _ := h.s.Job(h.ids["B"]); js.State != StateQueued {
				h.t.Errorf("duplicate is %s while its key runs, want queued", js.State)
			}
			if n := h.s.counts.running.Load(); n != 1 {
				h.t.Errorf("%d jobs running while the owner runs alone, want 1", n)
			}
			h.unpark()
		},
		want: map[string]string{"A": "queued running#1 done",
			"B": "queued running#1 done(cached)", "C": "queued running#1 done"},
		counts: JobCounts{Done: 3, Total: 3},
	},
	{
		name: "drained",
		run: func(h *transitionHarness) {
			h.block()
			h.mustSubmit("A", 2)
			drained := make(chan error, 1)
			go func() { drained <- h.drain(10 * time.Second) }()
			<-h.s.DrainBegun()
			if err := h.submit("late", 3); !errors.Is(err, ErrDraining) {
				h.t.Errorf("submit while draining = %v, want ErrDraining", err)
			}
			h.unblock()
			if err := <-drained; err != nil {
				h.t.Errorf("Drain: %v", err)
			}
		},
		want:   map[string]string{"blocker": "queued running#1 done", "A": "queued running#1 done"},
		counts: JobCounts{Done: 2, Total: 2},
	},
	{
		// Drain begins while a job's queued state is being published: the
		// job is admitted but not yet poppable, and every worker must stay
		// for it, then exit.
		name: "drain during admission",
		cfg:  Config{Workers: 2},
		run: func(h *transitionHarness) {
			drained := make(chan error, 1)
			h.r.onQueued = func(JobStatus) {
				go func() { drained <- h.drain(10 * time.Second) }()
				<-h.s.DrainBegun()
			}
			h.mustSubmit("A", 2)
			if err := <-drained; err != nil {
				h.t.Errorf("Drain: %v", err)
			}
		},
		want:   map[string]string{"A": "queued running#1 done"},
		counts: JobCounts{Done: 1, Total: 1},
	},
	{
		name: "drain deadline",
		run: func(h *transitionHarness) {
			h.block()
			h.mustSubmit("A", 2)
			drained := make(chan error, 1)
			go func() { drained <- h.drain(0) }()
			<-h.s.DrainBegun()
			// The expired Drain cancels every job's context before it
			// waits for the pool; its error says the deadline passed.
			<-h.s.rootCtx.Done()
			h.unblock()
			if err := <-drained; !errors.Is(err, context.DeadlineExceeded) {
				h.t.Errorf("Drain = %v, want the deadline", err)
			}
		},
		want:   map[string]string{"blocker": "queued running#1 done", "A": "queued failed(cancelled)"},
		counts: JobCounts{Done: 1, Failed: 1, Total: 2},
	},
	{
		name: "queue full",
		cfg:  Config{QueueCap: 1},
		run: func(h *transitionHarness) {
			h.block()
			h.mustSubmit("A", 2)
			var full *QueueFullError
			if err := h.submit("B", 3); !errors.As(err, &full) {
				h.t.Errorf("submit past capacity = %v, want QueueFullError", err)
			}
			h.unblock()
		},
		want:   map[string]string{"blocker": "queued running#1 done", "A": "queued running#1 done"},
		counts: JobCounts{Done: 2, Total: 2},
	},
	{
		name: "over quota",
		cfg:  Config{Tenants: []TenantConfig{{Name: transTenant, Key: "key-t", MaxActive: 1}}},
		run: func(h *transitionHarness) {
			h.block()
			h.mustSubmit("A", 2)
			var quota *QuotaError
			if err := h.submit("B", 3); !errors.As(err, &quota) {
				h.t.Errorf("submit over quota = %v, want QuotaError", err)
			}
			h.unblock()
		},
		want:   map[string]string{"blocker": "queued running#1 done", "A": "queued running#1 done"},
		counts: JobCounts{Done: 2, Total: 2},
	},
	{
		name: "batch member",
		run: func(h *transitionHarness) {
			h.block()
			bs, err := h.s.SubmitBatch(context.Background(), []Request{transReq(hitSeed), transReq(2)})
			if err != nil || bs.Accepted != 2 {
				h.t.Fatalf("batch = %+v, %v", bs, err)
			}
			h.ids["hit"], h.ids["A"], h.ids["batch"] = bs.Jobs[0].Job.ID, bs.Jobs[1].Job.ID, bs.ID
			h.unblock()
		},
		want: map[string]string{"blocker": "queued running#1 done",
			"hit": "done(cached)", "A": "queued running#1 done"},
		counts: JobCounts{Done: 3, Total: 3},
		batch:  "hit:done(cached) A:queued A:running#1 A:done summary:2/2",
	},
}

func TestJobTransitions(t *testing.T) {
	for _, c := range transitionCases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			if c.panics {
				cfg.Faults = faults.New(faults.Config{Seed: 1,
					Rules: map[faults.Class]faults.Rule{faults.WorkerPanic: {Every: 1, Max: 1}}})
			}
			h := newTransitionHarness(t, cfg)
			c.run(h)
			if err := h.drain(10 * time.Second); err != nil {
				t.Fatalf("Drain: %v", err)
			}
			checkTransitions(t, h, c)
		})
	}
}

func checkTransitions(t *testing.T, h *transitionHarness, c transitionCase) {
	s, r := h.s, h.r
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.mismatch {
		t.Error(m)
	}
	labels := map[string]string{} // job id -> label
	for label, id := range h.ids {
		if label != "batch" {
			labels[id] = label
		}
	}
	for id := range r.seen {
		if labels[id] == "" {
			t.Errorf("hook saw job %s, which no admitted submission returned", id)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.jobs) != len(c.want) {
		t.Errorf("job table holds %d jobs, want the %d admitted", len(s.jobs), len(c.want))
	}
	for label, want := range c.want {
		id := h.ids[label]
		var hooked []string
		for _, js := range r.seen[id] {
			hooked = append(hooked, stateLabel(js))
		}
		if got := strings.Join(hooked, " "); got != want {
			t.Errorf("%s: hook saw %q, want %q", label, got, want)
		}
		j := s.jobs[id]
		if j == nil {
			t.Errorf("%s: not in the job table", label)
			continue
		}
		// The event log holds the very statuses the hook got, byte for byte.
		l := s.streamLog(j)
		l.mu.Lock()
		var logged []StreamEvent
		for _, ev := range l.events {
			if ev.Type == EventState {
				logged = append(logged, ev)
			}
		}
		closed := l.closed
		l.mu.Unlock()
		if len(logged) != len(r.seen[id]) {
			t.Errorf("%s: event log holds %d state events, hook saw %d", label, len(logged), len(r.seen[id]))
		}
		for i := 0; i < min(len(logged), len(r.seen[id])); i++ {
			hooked, _ := json.Marshal(r.seen[id][i])
			if string(logged[i].Data) != string(hooked) {
				t.Errorf("%s: state event %d is\n%s\nhook got\n%s", label, i+1, logged[i].Data, hooked)
			}
		}
		if !closed {
			t.Errorf("%s: event stream still open", label)
		}
		inRing := 0
		for _, x := range s.ring {
			if x == j {
				inRing++
			}
		}
		if inRing != 1 {
			t.Errorf("%s: %d times in the ring of finished jobs, want 1", label, inRing)
		}
		if j.ctx.Err() == nil {
			t.Errorf("%s: context still live after a terminal state", label)
		}
	}
	if got := s.counts.snapshot(); got != c.counts {
		t.Errorf("counts %+v, want %+v", got, c.counts)
	}
	if got := s.tenants.status(nil)[transTenant].Active; got != 0 {
		t.Errorf("tenant holds %d slots after every job ended, want 0", got)
	}
	if c.batch != "" {
		b := s.batches[h.ids["batch"]]
		if b == nil {
			t.Fatalf("batch %s left the table with members retained", h.ids["batch"])
		}
		b.log.mu.Lock()
		var got []string
		for _, ev := range b.log.events {
			if ev.Type == EventBatch {
				var sum struct{ Total, Done int }
				json.Unmarshal(ev.Data, &sum)
				got = append(got, fmt.Sprintf("summary:%d/%d", sum.Done, sum.Total))
				continue
			}
			var js JobStatus
			json.Unmarshal(ev.Data, &js)
			got = append(got, labels[js.ID]+":"+stateLabel(js))
		}
		b.log.mu.Unlock()
		if g := strings.Join(got, " "); g != c.batch {
			t.Errorf("batch stream carried %q, want %q", g, c.batch)
		}
	}
}
