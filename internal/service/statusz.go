package service

// Live introspection for qsmd: Status() assembles the one-screen snapshot
// /statusz serves (and cmd/qsmtop renders) — scheduler queue and job-state
// counts, store health and degradation counters, fault-injection fire
// counts, and uptime. Everything here is a read-side view over state the
// serving path already maintains; taking a snapshot never blocks a worker
// beyond the same short locks the serving path uses.

import (
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/store"
)

// QueueStatus describes the admission queue.
type QueueStatus struct {
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
	// AgingStepSeconds is the starvation-protection quantum: +1 effective
	// priority per step waited.
	AgingStepSeconds float64 `json:"aging_step_seconds,omitempty"`
	// Tenants is the queued-job count per tenant (omitted when idle).
	Tenants map[string]int `json:"tenants,omitempty"`
}

// JobCounts counts jobs by lifecycle state: Queued and Running are the jobs
// in those states now, Done and Failed every job that has ended that way since
// the scheduler started, and Total their sum, every job admitted.
type JobCounts struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	Total   int `json:"total"`
}

// SchedulerCounters mirrors the scheduler's self-metrics as plain numbers.
type SchedulerCounters struct {
	Submitted   uint64 `json:"submitted"`
	Rejected    uint64 `json:"rejected"`
	Failed      uint64 `json:"failed"`
	Retried     uint64 `json:"retried"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Inflight    int64  `json:"inflight"`
}

// counters reads the scheduler's self-metrics. Inflight is the running
// job count.
func (s *Scheduler) counters() SchedulerCounters {
	return SchedulerCounters{
		Submitted:   s.met.submitted.Load(),
		Rejected:    s.met.rejected.Load(),
		Failed:      s.met.failed.Load(),
		Retried:     s.met.retried.Load(),
		CacheHits:   s.met.hits.Load(),
		CacheMisses: s.met.misses.Load(),
		Inflight:    s.counts.running.Load(),
	}
}

// FaultStatus reports the fault injector's armed state and per-class fire
// counts.
type FaultStatus struct {
	Armed    bool              `json:"armed"`
	Injected map[string]uint64 `json:"injected,omitempty"`
}

// Status is the /statusz payload: one JSON object summarising the live
// state of the serving stack.
type Status struct {
	UptimeSeconds float64           `json:"uptime_seconds"`
	Fingerprint   string            `json:"fingerprint"`
	Draining      bool              `json:"draining"`
	TraceEnabled  bool              `json:"trace_enabled"`
	Workers       int               `json:"workers"`
	Goroutines    int               `json:"goroutines"`
	WallSpans     int               `json:"wall_spans"`
	WallDropped   uint64            `json:"wall_spans_dropped,omitempty"`
	Queue         QueueStatus       `json:"queue"`
	Jobs          JobCounts         `json:"jobs"`
	Scheduler     SchedulerCounters `json:"scheduler"`
	Store         store.Stats       `json:"store"`
	Faults        FaultStatus       `json:"faults"`
	// Streams summarises the push side: live subscribers and fan-out
	// counters.
	Streams StreamStatus `json:"streams"`
	// Tenants is the per-tenant quota view; present only in keyed
	// multi-tenant mode.
	Tenants map[string]TenantStatus `json:"tenants,omitempty"`
}

// Status assembles a point-in-time introspection snapshot.
func (s *Scheduler) Status() Status {
	depth, _ := s.queue.depth()
	st := Status{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Fingerprint:   s.cfg.Fingerprint,
		TraceEnabled:  s.cfg.Tracer.Enabled(),
		Workers:       s.cfg.Workers,
		Goroutines:    runtime.NumGoroutine(),
		WallSpans:     s.cfg.Tracer.Spans(),
		WallDropped:   s.cfg.Tracer.Dropped(),
		Queue: QueueStatus{
			Depth:            depth,
			Capacity:         s.queue.Cap(),
			AgingStepSeconds: s.cfg.AgingStep.Seconds(),
			Tenants:          s.queue.TenantDepths(),
		},
		Store:    s.cfg.Store.Stats(),
		Draining: s.Draining(),
		Jobs:     s.counts.snapshot(),
	}

	st.Scheduler = s.counters()

	if s.cfg.Faults != nil {
		st.Faults.Armed = true
		st.Faults.Injected = map[string]uint64{}
		for _, c := range faults.Classes() {
			st.Faults.Injected[c.String()] = s.cfg.Faults.Count(c)
		}
	}
	st.Streams = s.streams.status()
	st.Tenants = s.tenants.status(st.Queue.Tenants)
	return st
}

// AdminState is the GET /v1/admin/state payload: the operator's deep view —
// every queued job with its aged priority, every live stream subscriber,
// batch completion state, and tenant quota usage.
type AdminState struct {
	Draining    bool                    `json:"draining"`
	Workers     int                     `json:"workers"`
	Queue       []QueuedJobInfo         `json:"queue"`
	Jobs        JobCounts               `json:"jobs"`
	Batches     []BatchInfo             `json:"batches,omitempty"`
	Subscribers []SubscriberInfo        `json:"subscribers,omitempty"`
	Streams     StreamStatus            `json:"streams"`
	Tenants     map[string]TenantStatus `json:"tenants,omitempty"`
}

// AdminState assembles the admin introspection snapshot.
func (s *Scheduler) AdminState() AdminState {
	st := s.Status()
	out := AdminState{
		Draining:    st.Draining,
		Workers:     st.Workers,
		Queue:       s.queue.snapshot(),
		Jobs:        st.Jobs,
		Subscribers: s.streams.subscribers(),
		Streams:     st.Streams,
		Tenants:     st.Tenants,
	}
	s.mu.Lock()
	batches := make([]*batchStream, 0, len(s.batches))
	for _, b := range s.batches {
		batches = append(batches, b)
	}
	s.mu.Unlock()
	for _, b := range batches {
		out.Batches = append(out.Batches, b.info())
	}
	sort.Slice(out.Batches, func(a, b int) bool { return out.Batches[a].ID < out.Batches[b].ID })
	return out
}

// WriteJobTrace writes the merged Perfetto trace for one job: its wall-clock
// spans (HTTP handling, queue wait, scheduler attempts, store I/O, runner
// execution — every span tagged with the job's trace ID, including the
// client's polls when the client propagated the ID) alongside the job's
// sim-time spans when the scheduler collected them. It reports whether the
// job is retained; a job without tracing exports an empty-but-valid trace.
func (s *Scheduler) WriteJobTrace(w io.Writer, id string) (bool, error) {
	j, _ := s.lookup(id)
	if j == nil {
		return false, nil
	}
	return true, s.writeJobTrace(w, j)
}

func (s *Scheduler) writeJobTrace(w io.Writer, j *job) error {
	return obs.WriteMergedTrace(w, j.traceID, s.cfg.Tracer, j.SimTrace())
}
