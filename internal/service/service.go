// Package service is the experiment-serving layer behind cmd/qsmd: a job
// scheduler wrapping experiments.Run with a bounded admission queue, a
// content-addressed result cache, per-job lifecycle tracking
// (queued → running → done/failed) with live progress, context-based
// cancellation, and graceful drain. Every shape here — admission control,
// memoization, request lifecycle, retry budgets, drain on shutdown — is the
// standard serving-stack vocabulary, applied to parameter-sweep simulations.
//
// Identical submissions are served from the store: a hit at admission
// completes the job without queuing, and two concurrent identical jobs
// share one simulation through the store's single-flight path. Because the
// simulator is deterministic in the keyed options, cached tables are
// byte-identical to recomputation.
//
// The job table is bounded by count: every queued or running job stays
// addressable, and so do the last retainedJobs finished ones. Older
// finished records are evicted; their results stay in the store, addressed
// by cache key, and their ids answer 404 with a hint that says so.
//
// Failures are contained per attempt: each execution attempt runs under an
// optional per-job timeout, a failed (non-cancelled) attempt is retried up
// to a bounded budget, and a panicking experiment is converted to an
// attempt failure rather than taking a worker down. An optional
// faults.Injector drives worker panics and artificial slowness through the
// same paths deterministically, which is how the chaos harness in
// internal/faults proves that injected failures never change served
// results.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/store"
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// QueueFullError is the typed admission-control rejection returned when the
// submission queue is at capacity. Callers see it immediately instead of
// blocking; the HTTP layer maps it to 429.
type QueueFullError struct{ Capacity int }

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("service: queue full (capacity %d)", e.Capacity)
}

// ErrDraining rejects submissions arriving after Drain began.
var ErrDraining = errors.New("service: shutting down")

// ErrUnknownExperiment rejects submissions naming no registered experiment.
var ErrUnknownExperiment = errors.New("service: unknown experiment")

// Config parameterises a Scheduler.
type Config struct {
	// Store is the content-addressed result cache. Required.
	Store *store.Store
	// QueueCap bounds the submission queue; admission beyond it returns
	// QueueFullError. <= 0 means 64.
	QueueCap int
	// AgingStep is the queue's starvation-protection quantum: a queued
	// job's effective priority rises by one per AgingStep waited, so
	// low-priority work eventually outranks a flood of fresh high-priority
	// submissions. <= 0 means 5s.
	AgingStep time.Duration
	// Workers is the number of jobs simulated concurrently. <= 0 means 2.
	Workers int
	// SimParallelism is each job's Options.Parallelism (how many worker
	// goroutines one simulation sweep fans across). 0 means GOMAXPROCS.
	SimParallelism int
	// Fingerprint identifies the code in cache keys; empty means
	// store.Fingerprint(). Cluster nodes must share one fingerprint or
	// their ring placements disagree.
	Fingerprint string
	// NodeName identifies this scheduler's node in a cluster; it is stamped
	// into every JobStatus so clients (and the qsmload balance report) can
	// tell which node executed a job. Empty for single-node deployments.
	NodeName string
	// CollectMetrics attaches an obs sink to each computed job and stores
	// the aggregated metrics JSON (and simulated-event counts) in entries.
	CollectMetrics bool
	// JobTimeout bounds each execution attempt; an attempt exceeding it is
	// cancelled through its context and counts as a failure (retried while
	// budget remains). 0 means no per-attempt limit.
	JobTimeout time.Duration
	// JobRetries is how many additional attempts a failed job gets beyond
	// the first. Cancelled jobs are never retried; the budget only covers
	// transient failures (panics, timeouts, injected faults). 0 retries.
	JobRetries int
	// Faults optionally injects worker panics and artificial slowness into
	// the compute path; nil injects nothing.
	Faults *faults.Injector
	// StateHook, when non-nil, is called synchronously after every lifecycle
	// transition with the status taken as the state moved. Per job the calls
	// come in transition order, one per transition: queued, each running
	// attempt, then exactly one terminal call, done or failed (a hit at
	// admission gets only done). The counts and the tenant's slot have
	// moved by then. It runs outside scheduler locks, must be safe for
	// concurrent use and must not call back into the scheduler. Tests use it
	// for channel-based synchronization instead of wall-clock polling.
	StateHook func(JobStatus)
	// Tenants switches the API into keyed multi-tenant mode: submissions
	// must carry a configured tenant's API key, and each tenant's
	// concurrent-job and queue-depth quotas are enforced at admission
	// (QuotaError → HTTP 429 + Retry-After). Empty keeps today's anonymous
	// behavior exactly.
	Tenants []TenantConfig
	// StreamBuffer bounds each event-stream subscriber's in-flight buffer;
	// overflow drops events for that subscriber (surfaced as a dropped
	// marker with a resume ID) instead of ever blocking a scheduler worker.
	// <= 0 means 64.
	StreamBuffer int
	// StreamLogCap bounds each stream's retained event log, the window a
	// Last-Event-ID reconnect can replay. <= 0 means 256.
	StreamLogCap int
	// StreamHeartbeat is the idle event-stream heartbeat period (SSE
	// comment frames). <= 0 means 15s.
	StreamHeartbeat time.Duration
	// Log receives request-scoped structured log lines (submissions, state
	// transitions, fault annotations), each stamped with the job's trace ID.
	// Nil logs nothing.
	Log *obs.Logger
	// Tracer collects wall-clock spans across the serving layers — HTTP
	// handling, queue wait, scheduler attempts, store I/O, runner execution —
	// tagged with per-request trace IDs. Nil traces nothing.
	Tracer *obs.WallTracer
	// CollectTrace additionally gives each computed job a sim-time span
	// trace, retained on the job so /v1/jobs/{id}/trace can export it merged
	// with the job's wall-clock spans. Requires CollectMetrics-style sinks;
	// off by default because sim traces are large.
	CollectTrace bool
}

// Request is one experiment submission.
type Request struct {
	Experiment string
	Options    experiments.OptionsKey
	// TraceID, when a valid obs trace ID, threads an end-to-end trace
	// through the job: every wall-clock span and log line the job produces
	// carries it. Empty (or invalid) means the scheduler assigns one when
	// tracing is enabled.
	TraceID string
	// Tenant optionally names the submitting tenant for fair queuing:
	// dequeue ties break toward the tenant served least recently, so one
	// tenant flooding the queue cannot monopolise the workers. Empty is a
	// valid (shared) tenant.
	Tenant string
	// Priority orders dequeue: higher runs first, subject to aging (see
	// Config.AgingStep). Zero is the default class.
	Priority int
	// Deadline, when positive, is the submission's latency budget; among
	// equal aged priorities the earliest absolute deadline dequeues first,
	// and deadlined work outranks open-ended work.
	Deadline time.Duration
}

// JobProgress is a point-in-time view of a running sweep.
type JobProgress struct {
	// Done counts completed (sweep-point, run) simulation jobs across all
	// of the experiment's sweeps so far.
	Done int `json:"done"`
	// SweepPoints and SweepRuns describe the current sweep's grid, when a
	// sweep has reported progress.
	SweepPoints int `json:"sweep_points,omitempty"`
	SweepRuns   int `json:"sweep_runs,omitempty"`
}

// JobStatus is the externally visible snapshot of a job; it is what the
// HTTP API serializes.
type JobStatus struct {
	ID         string                 `json:"id"`
	Experiment string                 `json:"experiment"`
	Options    experiments.OptionsKey `json:"options"`
	// TraceID is the trace this job's spans and log lines are tagged with;
	// empty when tracing is disabled.
	TraceID string `json:"trace_id,omitempty"`
	// Node names the cluster node that ran (or is running) the job; empty
	// on single-node deployments.
	Node  string `json:"node,omitempty"`
	State State  `json:"state"`
	// Tenant and Priority echo the submission's queuing identity.
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
	// Cached reports the job was served from the result store (at admission
	// or by sharing another job's in-flight computation).
	Cached   bool   `json:"cached"`
	CacheKey string `json:"cache_key"`
	// Coalesced reports the job was batch-admitted behind an identical
	// queued submission and served from its leader's single simulation.
	Coalesced bool `json:"coalesced,omitempty"`
	// ResultKey addresses the result under /v1/results/{key} once done.
	ResultKey string `json:"result_key,omitempty"`
	Error     string `json:"error,omitempty"`
	// Attempt is the number of execution attempts started so far (1 on the
	// first run; higher after retries). Zero for jobs served at admission.
	Attempt        int         `json:"attempt,omitempty"`
	Progress       JobProgress `json:"progress"`
	CreatedAt      time.Time   `json:"created_at"`
	ElapsedSeconds float64     `json:"elapsed_seconds"`
}

// retainedJobs is how many finished (done or failed) jobs the scheduler
// keeps addressable by id. Queued and running jobs are always kept, so the
// job table holds at most retainedJobs plus the jobs in flight.
const retainedJobs = 4096

// jobCounts tallies jobs by lifecycle state as they move between states:
// queued and running are live counts, done and failed only grow. Every
// admitted job is in exactly one state, so their sum is every job admitted
// since the scheduler started. runningMax is running's high-water mark.
type jobCounts struct{ queued, running, done, failed, runningMax atomic.Int64 }

func (c *jobCounts) of(st State) *atomic.Int64 {
	switch st {
	case StateQueued:
		return &c.queued
	case StateRunning:
		return &c.running
	case StateDone:
		return &c.done
	default:
		return &c.failed
	}
}

func (c *jobCounts) snapshot() JobCounts {
	n := JobCounts{
		Queued:  int(c.queued.Load()),
		Running: int(c.running.Load()),
		Done:    int(c.done.Load()),
		Failed:  int(c.failed.Load()),
	}
	n.Total = n.Queued + n.Running + n.Done + n.Failed
	return n
}

// job is the scheduler-internal mutable record behind a JobStatus.
type job struct {
	seq        int
	id         string
	experiment string
	opts       experiments.OptionsKey
	cacheKey   string
	traceID    string
	node       string
	tenant     string
	priority   int
	// deadline is the absolute EDF key (zero = no deadline).
	deadline time.Time
	// ctx carries the job's obs.TraceContext, so store I/O and compute done
	// under it trace and log with the job's identity.
	ctx    context.Context
	cancel context.CancelFunc
	// log is the job-scoped logger (trace ID, job id, short key baked in).
	log *obs.Logger
	// queueSpan is the admission-to-dequeue wall span; set before the job is
	// enqueued and ended by the dequeuing worker (ordered by the queue).
	queueSpan *obs.WallSpan
	// events is the job's replayable stream log behind
	// GET /v1/jobs/{id}/events. Nil for a job served at admission, whose
	// whole stream is its one terminal state event (see streamLog).
	events *eventLog
	// counts is the scheduler's per-state tally, moved with state.
	counts *jobCounts

	// batches lists the batch streams the job's retention keeps alive;
	// guarded by Scheduler.mu.
	batches []*batchStream

	mu sync.Mutex
	// quota is the registry whose tenant concurrency slot the job holds
	// until its terminal move; nil when it holds none.
	quota     *tenantRegistry
	state     State
	cached    bool
	coalesced bool
	errMsg    string
	resultKey string
	attempt   int
	progress  JobProgress
	created   time.Time
	finished  time.Time
	// simTrace holds the job's merged sim-time recorder once computed, for
	// the /v1/jobs/{id}/trace merged export. Nil for cache hits and when
	// CollectTrace is off.
	simTrace *obs.Recorder
}

// setSimTrace retains the job's merged sim-time recorder for trace export.
func (j *job) setSimTrace(rec *obs.Recorder) {
	j.mu.Lock()
	j.simTrace = rec
	j.mu.Unlock()
}

// SimTrace returns the job's retained sim-time recorder, or nil.
func (j *job) SimTrace() *obs.Recorder {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.simTrace
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *job) statusLocked() JobStatus {
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	return JobStatus{
		ID:             j.id,
		Experiment:     j.experiment,
		Options:        j.opts,
		TraceID:        j.traceID,
		Node:           j.node,
		Tenant:         j.tenant,
		Priority:       j.priority,
		State:          j.state,
		Cached:         j.cached,
		Coalesced:      j.coalesced,
		CacheKey:       j.cacheKey,
		ResultKey:      j.resultKey,
		Error:          j.errMsg,
		Attempt:        j.attempt,
		Progress:       j.progress,
		CreatedAt:      j.created,
		ElapsedSeconds: end.Sub(j.created).Seconds(),
	}
}

// outcome is what a terminal transition records: a done job's result key
// and how it was served, or a failed job's error.
type outcome struct {
	resultKey         string
	cached, coalesced bool
	err               error
}

// moveLocked moves j to state to at time at, and with it the per-state
// counts, the attempt number of a running move and, on a terminal one, the
// outcome, the tenant slot and the finish time. It returns the status
// every observer of this transition gets. j.mu held, or j not yet
// published.
func (j *job) moveLocked(to State, out outcome, at time.Time) JobStatus {
	switch to {
	case StateRunning:
		j.attempt++
	case StateDone, StateFailed:
		if j.quota != nil {
			j.quota.release(j.tenant)
		}
		j.resultKey, j.cached, j.coalesced = out.resultKey, out.cached, out.coalesced
		if out.err != nil {
			j.errMsg = out.err.Error()
		}
		j.finished = at
	}
	if j.state != "" {
		j.counts.of(j.state).Add(-1)
	}
	if n := j.counts.of(to).Add(1); to == StateRunning {
		for m := j.counts.runningMax.Load(); n > m && !j.counts.runningMax.CompareAndSwap(m, n); {
			m = j.counts.runningMax.Load()
		}
	}
	j.state = to
	return j.statusLocked()
}

// onProgress feeds experiments.Options.Progress; it runs on simulation
// worker goroutines.
func (j *job) onProgress(p experiments.Progress) {
	j.mu.Lock()
	j.progress.Done++
	j.progress.SweepPoints = p.Points
	j.progress.SweepRuns = p.Runs
	j.mu.Unlock()
	j.publishProgress()
}

// Scheduler accepts experiment jobs, runs them on a bounded worker pool,
// and memoizes results through the store.
type Scheduler struct {
	cfg        Config
	queue      *admitQueue
	started    time.Time
	rootCtx    context.Context
	rootCancel context.CancelFunc
	drainCh    chan struct{}
	wg         sync.WaitGroup

	streams *streamHub
	tenants *tenantRegistry
	counts  jobCounts
	// idPrefix is what every job id this scheduler issues starts with,
	// followed by the job's sequence number.
	idPrefix string
	// doneCtx is the already-cancelled context every job served at
	// admission shares: nothing runs under it.
	doneCtx context.Context

	mu      sync.Mutex
	jobs    map[string]*job
	nextSeq int
	// ring holds the retained finished jobs; once full, ring[ringNext] is
	// the oldest, evicted by the next job to finish. ringCap sizes it on
	// first use (retainedJobs; tests lower it).
	ring      []*job
	ringNext  int
	ringCap   int
	batches   map[string]*batchStream
	nextBatch int
	draining  bool

	// met counts scheduler events; WriteMetricsText and Status read it at
	// scrape time, so counting takes no lock.
	met struct {
		submitted, rejected, failed, retried atomic.Uint64
		hits, misses, coalesced, batches     atomic.Uint64
	}
	// latency is the one locked series: obs recorders are single-goroutine,
	// and the job-latency histogram is observed once per computed job.
	latency struct {
		sync.Mutex
		rec *obs.Recorder
		h   *obs.Histogram
	}
}

// New starts a scheduler and its worker pool. Stop it with Drain.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Store == nil {
		return nil, errors.New("service: Config.Store is required")
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Fingerprint == "" {
		cfg.Fingerprint = store.Fingerprint()
	}
	if cfg.AgingStep <= 0 {
		cfg.AgingStep = 5 * time.Second
	}
	tenants, err := newTenantRegistry(cfg.Tenants)
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		cfg:      cfg,
		queue:    newAdmitQueue(cfg.QueueCap, cfg.AgingStep),
		started:  time.Now(),
		jobs:     map[string]*job{},
		ringCap:  retainedJobs,
		batches:  map[string]*batchStream{},
		streams:  newStreamHub(),
		tenants:  tenants,
		drainCh:  make(chan struct{}),
		idPrefix: "job-",
	}
	// Cluster nodes namespace job IDs with their node name: IDs cross node
	// boundaries when a forwarded submit's ID is later polled on another
	// node, and bare sequence numbers would collide across the cluster.
	if cfg.NodeName != "" {
		s.idPrefix = "job-" + cfg.NodeName + "-"
	}
	s.rootCtx, s.rootCancel = context.WithCancel(context.Background())
	doneCtx, cancel := context.WithCancel(context.Background())
	cancel()
	s.doneCtx = doneCtx
	s.latency.rec = obs.New(obs.Config{Metrics: true})
	s.latency.h = s.latency.rec.Histogram("service", "job_latency_seconds", "", obs.ExpBuckets(0.001, 4, 12))
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// transition moves j to state to under j.mu and hands the status taken
// there to every observer. Per job, order comes from who calls it:
// admission moves a job to queued (or, for a hit, done) and publishes
// that before the job can be popped, and from then on only the worker
// that popped it moves it. So observers see each job's transitions in
// order, each once.
func (s *Scheduler) transition(j *job, to State, out outcome) JobStatus {
	j.mu.Lock()
	st := j.moveLocked(to, out, time.Now())
	j.mu.Unlock()
	s.publish(j, st)
	return st
}

// publish gives one transition's status to the state hook and the job's
// event log and, when it is terminal, cancels the job's context and puts
// the job into the ring of retained finished jobs. Every path to a
// terminal state ends here, which is what makes the stream close and the
// retention bound exhaustive. It runs outside every scheduler lock.
func (s *Scheduler) publish(j *job, st JobStatus) {
	if s.cfg.StateHook != nil {
		s.cfg.StateHook(st)
	}
	if j.events != nil {
		j.events.publishState(st)
	}
	if st.State == StateDone || st.State == StateFailed {
		// Nothing runs under a terminal job's context any more; cancelling
		// it detaches it from the root context, whose children would
		// otherwise grow by one per job.
		j.cancel()
		s.retire(j)
	}
}

// retire puts finished job j into the ring of retained finished jobs,
// evicting the oldest one once the ring is full. Each job's one terminal
// transition calls it once.
func (s *Scheduler) retire(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ring == nil {
		s.ring = make([]*job, s.ringCap)
	}
	if old := s.ring[s.ringNext]; old != nil {
		delete(s.jobs, old.id)
		for _, b := range old.batches {
			s.releaseBatchLocked(b)
		}
	}
	s.ring[s.ringNext] = j
	s.ringNext = (s.ringNext + 1) % len(s.ring)
}

// Fingerprint returns the code fingerprint baked into this scheduler's
// cache keys.
func (s *Scheduler) Fingerprint() string { return s.cfg.Fingerprint }

// NodeName returns the node name stamped into this scheduler's job IDs and
// statuses; empty on a single node.
func (s *Scheduler) NodeName() string { return s.cfg.NodeName }

// Submit admits one job. On a warm cache the returned status is already
// done (Cached=true) and nothing is queued; otherwise the job is queued
// unless the queue is full (QueueFullError) or the scheduler is draining
// (ErrDraining).
func (s *Scheduler) Submit(req Request) (JobStatus, error) {
	return s.SubmitCtx(context.Background(), req)
}

// SubmitCtx is Submit under a request context: the admission-time store read
// traces and logs against the submitting request (its obs.TraceContext,
// when present), and the job inherits the request's trace ID so every span
// and log line downstream — queue wait, attempts, store I/O, runner — shares
// it. ctx scopes admission only; job execution is bound to the scheduler's
// lifetime, not the submitting request's.
func (s *Scheduler) SubmitCtx(ctx context.Context, req Request) (JobStatus, error) {
	j, err := s.submit(ctx, req)
	if err != nil {
		return JobStatus{}, err
	}
	return j.status(), nil
}

// submit is SubmitCtx returning the admitted job itself, which stays valid
// after the scheduler has evicted it from the job table.
func (s *Scheduler) submit(ctx context.Context, req Request) (*job, error) {
	if !experiments.Known(req.Experiment) {
		return nil, fmt.Errorf("%w %q (have %v)", ErrUnknownExperiment, req.Experiment, experiments.IDs())
	}
	s.met.submitted.Add(1)
	key := store.ResultKey(req.Experiment, req.Options, s.cfg.Fingerprint)
	traceID := s.resolveTraceID(ctx, req)

	// Admission-time cache hit: complete without consuming queue capacity.
	// A store read error here is deliberately treated as a miss — the queue
	// path recomputes.
	if _, ok, err := s.cfg.Store.GetBytes(ctx, key); err == nil && ok {
		s.mu.Lock()
		j := s.registerLocked(req, key, traceID, true)
		st := j.moveLocked(StateDone, outcome{resultKey: key, cached: true}, j.created)
		s.mu.Unlock()
		s.met.hits.Add(1)
		if j.log.Enabled() {
			j.log.Info("job served from cache at admission", "experiment", req.Experiment, "state", StateDone)
		}
		s.publish(j, st)
		return j, nil
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.met.rejected.Add(1)
		s.logFor(traceID).Warn("submission rejected: draining", "experiment", req.Experiment)
		return nil, ErrDraining
	}
	// Tenant quota and queue capacity gate admission after the cache-hit
	// check (a cached result never consumes quota) and before the job
	// exists, so a rejection leaves no trace beyond the counters.
	held, err := s.tenants.acquire(req.Tenant, s.queue.TenantDepth(req.Tenant))
	if err != nil {
		s.mu.Unlock()
		s.met.rejected.Add(1)
		s.logFor(traceID).Warn("submission rejected: tenant over quota",
			"experiment", req.Experiment, "tenant", req.Tenant, "error", err)
		return nil, err
	}
	if !s.queue.reserve(req.Tenant) {
		s.mu.Unlock()
		if held {
			s.tenants.release(req.Tenant)
		}
		s.met.rejected.Add(1)
		s.logFor(traceID).Warn("submission rejected: queue full", "experiment", req.Experiment, "capacity", s.queue.Cap())
		return nil, &QueueFullError{Capacity: s.queue.Cap()}
	}
	j := s.registerLocked(req, key, traceID, false)
	if held {
		j.quota = s.tenants
	}
	st := j.moveLocked(StateQueued, outcome{}, j.created)
	s.mu.Unlock()
	// Queued is published before the job can be popped, so it is the
	// first transition every observer sees.
	s.publish(j, st)
	depth := s.queue.push(j)
	j.log.Info("job queued", "experiment", req.Experiment, "state", StateQueued, "queue_depth", depth,
		"tenant", j.tenant, "priority", j.priority)
	return j, nil
}

// resolveTraceID picks the trace ID a submission runs under: a valid ID from
// the request, else the submitting context's, else (when tracing or logging
// is on) a fresh one. Untraced, unlogged schedulers leave it empty.
func (s *Scheduler) resolveTraceID(ctx context.Context, req Request) string {
	if obs.ValidTraceID(req.TraceID) {
		return req.TraceID
	}
	if tc := obs.TraceContextFrom(ctx); tc != nil && tc.ID != "" {
		return tc.ID
	}
	if s.cfg.Tracer.Enabled() || s.cfg.Log.Enabled() {
		return obs.NewTraceID()
	}
	return ""
}

// logFor returns the scheduler logger annotated with a trace ID.
func (s *Scheduler) logFor(traceID string) *obs.Logger {
	if traceID == "" {
		return s.cfg.Log
	}
	return s.cfg.Log.With("trace_id", traceID)
}

// registerLocked creates and indexes a job for its caller to move to its
// first state: queued, or with hit done from the cache. A hit gets none of
// what running needs: no event log, no child of the root context, and a
// queue span only when tracing is on.
func (s *Scheduler) registerLocked(req Request, key, traceID string, hit bool) *job {
	s.nextSeq++
	id := s.idPrefix + strconv.Itoa(s.nextSeq)
	j := &job{
		seq:        s.nextSeq,
		id:         id,
		experiment: req.Experiment,
		opts:       req.Options,
		cacheKey:   key,
		traceID:    traceID,
		node:       s.cfg.NodeName,
		tenant:     req.Tenant,
		priority:   req.Priority,
		counts:     &s.counts,
		created:    time.Now(),
	}
	if s.cfg.Log.Enabled() {
		j.log = s.logFor(traceID).With("job", j.id, "key", store.ShortKey(key))
	}
	s.jobs[j.id] = j
	if hit {
		j.ctx, j.cancel = s.doneCtx, func() {}
		if s.cfg.Tracer.Enabled() {
			// Never queued; commit the ~0 wait for a complete timeline.
			s.cfg.Tracer.Start(traceID, "queue", "queue", "queue-wait",
				obs.WArg{Key: "job", Val: j.id}, obs.WArg{Key: "experiment", Val: j.experiment}).End()
		}
		return j
	}
	if req.Deadline > 0 {
		j.deadline = j.created.Add(req.Deadline)
	}
	j.events = newEventLog(id, s.cfg.StreamLogCap, s.streams)
	j.ctx, j.cancel = context.WithCancel(s.rootCtx)
	// The job's context carries its trace identity so store I/O and compute
	// under it annotate the right trace.
	j.ctx = obs.WithTraceContext(j.ctx, &obs.TraceContext{ID: traceID, Tracer: s.cfg.Tracer, Log: j.log})
	j.queueSpan = s.cfg.Tracer.Start(traceID, "queue", "queue", "queue-wait",
		obs.WArg{Key: "job", Val: j.id}, obs.WArg{Key: "experiment", Val: j.experiment})
	return j
}

// lookup returns the retained job id names. When there is none, evicted
// reports whether id is still one this scheduler issued: its record has
// left the ring of retained finished jobs.
func (s *Scheduler) lookup(id string) (j *job, evicted bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil {
		return j, false
	}
	rest, ok := strings.CutPrefix(id, s.idPrefix)
	seq, err := strconv.Atoi(rest)
	return nil, ok && err == nil && seq >= 1 && seq <= s.nextSeq && strconv.Itoa(seq) == rest
}

// missingJob is the 404 error for an id lookup did not find.
func (s *Scheduler) missingJob(id string, evicted bool) error {
	if !evicted {
		return errors.New("service: no such job")
	}
	return fmt.Errorf("service: job %s left the retained window (the last %d finished jobs); "+
		"a done job's result stays at /v1/results/{cache_key}", id, s.ringCap)
}

// Job returns the status of one retained job.
func (s *Scheduler) Job(id string) (JobStatus, bool) {
	j, _ := s.lookup(id)
	if j == nil {
		return JobStatus{}, false
	}
	return j.status(), true
}

// Jobs lists the retained jobs — every queued or running job and the most
// recent finished ones — in submission order.
func (s *Scheduler) Jobs() []JobStatus {
	s.mu.Lock()
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	s.mu.Unlock()
	sort.Slice(js, func(a, b int) bool { return js[a].seq < js[b].seq })
	out := make([]JobStatus, len(js))
	for i, j := range js {
		out[i] = j.status()
	}
	return out
}

// Cancel cancels a job's context. A queued job fails when a worker
// dequeues it; a running job unwinds at its next (point, run) boundary.
// It reports whether the job is retained.
func (s *Scheduler) Cancel(id string) bool {
	j, _ := s.lookup(id)
	if j != nil {
		j.cancel()
	}
	return j != nil
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		batch, ok := s.queue.popBatch()
		if !ok {
			return
		}
		s.runBatch(batch)
	}
}

// runBatch executes one dequeued batch: the leader runs the simulation, and
// every coalesced follower (identical cache key, possibly other tenants) is
// completed from the leader's result without touching a worker. A cancelled
// or failed leader does not taint its followers: the next follower is
// promoted to leader and runs its own attempt loop — one simulation still
// serves everyone behind it — so cancelling a batch leader costs the
// followers nothing but their place in line.
func (s *Scheduler) runBatch(batch []*job) {
	if len(batch) > 1 {
		s.met.batches.Add(1)
		batch[0].log.Info("batch admission coalesced identical submissions",
			"followers", len(batch)-1, "experiment", batch[0].experiment)
	}
	for i := 0; i < len(batch); i++ {
		leader := batch[i]
		if i > 0 {
			leader.log.Info("follower promoted to batch leader", "cancelled_leader", batch[i-1].id)
		}
		resultKey, ok := s.runJob(leader)
		if !ok {
			// Leader cancelled or failed: promote the next follower. runJob
			// already failed this job with its own error.
			continue
		}
		for _, f := range batch[i+1:] {
			if s.dequeueCancelled(f) {
				continue
			}
			s.met.coalesced.Add(1)
			f.log.Info("job served from coalesced batch", "leader", leader.id, "state", StateDone)
			s.transition(f, StateDone, outcome{resultKey: resultKey, cached: true, coalesced: true})
		}
		return
	}
}

// dequeueCancelled ends the queue wait of dequeued job j and, when j was
// cancelled while queued, fails it and reports true.
func (s *Scheduler) dequeueCancelled(j *job) bool {
	j.queueSpan.End()
	err := j.ctx.Err()
	if err == nil {
		return false
	}
	s.met.failed.Add(1)
	j.log.Warn("job cancelled before start", "error", err)
	s.transition(j, StateFailed, outcome{err: err})
	return true
}

// runJob executes one job's attempt loop: each attempt runs under the
// per-job timeout, and a failed attempt is retried while the job is not
// cancelled and the retry budget lasts. It returns the job's result key
// and whether it completed, so batch followers can ride the outcome.
func (s *Scheduler) runJob(j *job) (string, bool) {
	if s.dequeueCancelled(j) {
		return "", false
	}
	start := time.Now()
	for {
		attempt := s.transition(j, StateRunning, outcome{}).Attempt
		j.log.Info("attempt started", "attempt", attempt, "experiment", j.experiment, "state", StateRunning)
		sp := s.cfg.Tracer.Start(j.traceID, "scheduler", "attempt", fmt.Sprintf("attempt %d", attempt),
			obs.WArg{Key: "job", Val: j.id}, obs.WArg{Key: "experiment", Val: j.experiment})
		hit, err := s.attempt(j)
		if err == nil {
			sp.Annotate("outcome", "done")
			sp.End()
			s.observeLatency(start)
			if hit {
				s.met.hits.Add(1)
			} else {
				s.met.misses.Add(1)
			}
			j.log.Info("job done", "attempt", attempt, "cached", hit, "state", StateDone,
				"elapsed_seconds", time.Since(start).Seconds())
			s.transition(j, StateDone, outcome{resultKey: j.cacheKey, cached: hit})
			return j.cacheKey, true
		}
		sp.Annotate("outcome", "failed")
		sp.Annotate("error", err.Error())
		if inj := new(faults.InjectedError); errors.As(err, &inj) {
			sp.Annotate("fault", inj.Class.String())
		}
		sp.End()
		if j.ctx.Err() == nil && attempt <= s.cfg.JobRetries {
			s.met.retried.Add(1)
			j.log.Warn("attempt failed, retrying", "attempt", attempt, "error", err)
			continue
		}
		s.observeLatency(start)
		s.met.failed.Add(1)
		j.log.Error("job failed", "attempt", attempt, "state", StateFailed, "error", err,
			"elapsed_seconds", time.Since(start).Seconds())
		s.transition(j, StateFailed, outcome{err: err})
		return "", false
	}
}

// observeLatency records one computed job's wall time since start.
func (s *Scheduler) observeLatency(start time.Time) {
	s.latency.Lock()
	s.latency.h.Observe(time.Since(start).Seconds())
	s.latency.Unlock()
}

// attempt runs one execution attempt through the store's single-flight
// path, bounded by the per-job timeout.
func (s *Scheduler) attempt(j *job) (hit bool, err error) {
	runCtx, cancel := j.ctx, func() {}
	if s.cfg.JobTimeout > 0 {
		runCtx, cancel = context.WithTimeout(j.ctx, s.cfg.JobTimeout)
	}
	defer cancel()
	_, hit, err = s.cfg.Store.GetOrComputeBytes(runCtx, j.cacheKey, func() (*store.Entry, error) {
		return s.compute(j, runCtx)
	})
	return hit, err
}

// compute runs the simulation behind a cache miss and builds its store
// entry. A panicking experiment is converted to an attempt failure so one
// bad simulation cannot take a serving worker down. The fault injector's
// SlowJob and WorkerPanic classes act here, upstream of the experiment,
// so injected failures exercise exactly the paths real ones take.
func (s *Scheduler) compute(j *job, ctx context.Context) (e *store.Entry, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: experiment %s panicked: %v", j.experiment, r)
		}
	}()
	if d := s.cfg.Faults.SlowDelay(); d > 0 {
		s.cfg.Tracer.Instant(j.traceID, "scheduler", "fault:"+faults.SlowJob.String(),
			obs.WArg{Key: "fault", Val: faults.SlowJob.String()}, obs.WArg{Key: "job", Val: j.id})
		j.log.Warn("injected slow job", "fault", faults.SlowJob.String(), "delay", d)
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		}
	}
	if s.cfg.Faults.Fire(faults.WorkerPanic) {
		s.cfg.Tracer.Instant(j.traceID, "scheduler", "fault:"+faults.WorkerPanic.String(),
			obs.WArg{Key: "fault", Val: faults.WorkerPanic.String()}, obs.WArg{Key: "job", Val: j.id})
		j.log.Warn("injected worker panic", "fault", faults.WorkerPanic.String())
		panic("faults: injected worker panic")
	}
	opt := j.opts.Options()
	opt.Parallelism = s.cfg.SimParallelism
	opt.Context = ctx
	opt.Progress = j.onProgress
	opt.Wall = s.cfg.Tracer
	opt.TraceID = j.traceID
	var sink *obs.Sink
	if s.cfg.CollectMetrics || s.cfg.CollectTrace {
		sink = obs.NewSink(obs.Config{Metrics: s.cfg.CollectMetrics, Trace: s.cfg.CollectTrace})
		opt.Obs = sink
	}
	runSpan := s.cfg.Tracer.Start(j.traceID, "runner", "run", j.experiment,
		obs.WArg{Key: "job", Val: j.id})
	t0 := time.Now()
	res, err := experiments.Run(j.experiment, opt)
	if err != nil {
		runSpan.Annotate("outcome", "error")
		runSpan.End()
		return nil, err
	}
	runSpan.End()
	wall := time.Since(t0)
	entry := &store.Entry{
		Key:         j.cacheKey,
		Experiment:  j.experiment,
		Title:       res.Title,
		Options:     j.opts,
		Fingerprint: s.cfg.Fingerprint,
		Tables:      res.String(),
		CreatedAt:   time.Now().UTC(),
	}
	bench := report.BenchRecord{
		ID:          j.experiment,
		Title:       res.Title,
		Seed:        j.opts.Seed,
		Runs:        j.opts.Runs,
		Quick:       j.opts.Quick,
		Parallelism: opt.Workers(),
		WallSeconds: wall.Seconds(),
		Extra:       res.Extra,
	}
	if sink != nil {
		merged := sink.Merged()
		// The job's own sink isolates its event count from concurrent jobs,
		// unlike the process-global sim.TotalEvents counter.
		bench.SimEvents = merged.FindCounter("sim", "events", "").Value()
		if s.cfg.CollectMetrics {
			// Compact: the store splices it into the entry's encoding as is.
			if m, err := merged.AppendMetricsJSON(nil); err == nil {
				entry.Metrics = m
			}
		}
		if s.cfg.CollectTrace {
			j.setSimTrace(merged)
		}
	}
	bench.Finish()
	entry.Bench = &bench
	return entry, nil
}

// WriteMetricsText writes /metricsz: the scheduler's section, then the
// store's, the stream fan-out, the tenant quotas and (when armed) the fault
// injector's, each rendered at scrape time from counts its owner keeps.
// The sections use disjoint subsystems, so the concatenation is a valid
// Prometheus exposition.
func (s *Scheduler) WriteMetricsText(w io.Writer) error {
	c := s.counters()
	rec := obs.New(obs.Config{Metrics: true})
	rec.Counter("service", "jobs_submitted", "").Add(c.Submitted)
	rec.Counter("service", "jobs_rejected", "").Add(c.Rejected)
	rec.Counter("service", "jobs_failed", "").Add(c.Failed)
	rec.Counter("service", "jobs_retried", "").Add(c.Retried)
	rec.Counter("service", "cache_hits", "").Add(c.CacheHits)
	rec.Counter("service", "cache_misses", "").Add(c.CacheMisses)
	rec.Counter("service", "jobs_coalesced", "").Add(c.Coalesced)
	rec.Counter("service", "coalesced_batches", "").Add(c.CoalescedBatches)
	// A gauge renders its value and high-water mark; setting the mark
	// first leaves both.
	g := rec.Gauge("service", "inflight_jobs", "")
	g.Set(s.counts.runningMax.Load())
	g.Set(c.Inflight)
	depth, maxDepth := s.queue.depth()
	g = rec.Gauge("service", "queue_depth", "")
	g.Set(int64(maxDepth))
	g.Set(int64(depth))
	s.latency.Lock()
	rec.Merge(s.latency.rec)
	s.latency.Unlock()
	if err := rec.WritePrometheusText(w); err != nil {
		return err
	}
	if err := s.cfg.Store.WriteMetricsText(w); err != nil {
		return err
	}
	ss := s.streams.status()
	rec = obs.New(obs.Config{Metrics: true})
	rec.Gauge("stream", "subscribers", "").Set(ss.Subscribers)
	rec.Counter("stream", "subscriptions_opened", "").Add(ss.Opened)
	rec.Counter("stream", "events_published", "").Add(ss.Published)
	rec.Counter("stream", "events_dropped", "").Add(ss.Dropped)
	if err := rec.WritePrometheusText(w); err != nil {
		return err
	}
	if err := s.tenants.writeMetricsText(w); err != nil {
		return err
	}
	if s.cfg.Faults != nil {
		return s.cfg.Faults.WriteMetricsText(w)
	}
	return nil
}

// Draining reports whether Drain has begun.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// DrainBegun returns a channel closed when Drain first begins; tests use it
// to synchronize on drain start without polling.
func (s *Scheduler) DrainBegun() <-chan struct{} { return s.drainCh }

// Drain stops admission (Submit returns ErrDraining), lets queued and
// in-flight jobs finish, and waits for the worker pool to exit. If ctx
// expires first, outstanding jobs are cancelled through their contexts and
// Drain still waits for the pool to unwind before returning ctx's error.
// Drain is idempotent.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		s.queue.close()
		close(s.drainCh)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.rootCancel()
		<-done
		return ctx.Err()
	}
}
