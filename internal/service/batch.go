package service

// Batch submission: POST /v1/jobs:batch admits up to maxBatchJobs jobs in
// one request with per-item outcomes (one tenant's quota rejection does not
// fail its siblings) and creates one aggregate event stream — every member
// job's events re-sequenced into a single log served on
// GET /v1/batches/{id}/events, closed by an EventBatch summary once the
// last member reaches a terminal state. Identical submissions inside one
// batch are deduplicated exactly like identical submissions across
// requests: the queue runs one, and the rest are served its result.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// batchStream aggregates the member jobs of one batch submission into a
// single stream with its own event numbering, tracking how many members
// have reached a terminal state so it can emit the closing summary.
type batchStream struct {
	id  string
	log *eventLog
	// held counts the member jobs still in the scheduler's job table, plus
	// one while SubmitBatch is admitting; guarded by Scheduler.mu. The
	// batch leaves Scheduler.batches when it reaches zero, so a batch is
	// dropped together with its last retained member.
	held int

	mu         sync.Mutex
	total      int // members still expected to produce a terminal event
	terminal   int
	failed     int
	summarized bool
}

// forward re-sequences one member event into the aggregate log and, when it
// is the member's terminal event, advances the completion count.
func (b *batchStream) forward(typ string, data []byte, memberTerminal, memberFailed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.log.publish(typ, data, false, false)
	if memberTerminal {
		b.terminal++
		if memberFailed {
			b.failed++
		}
	}
	b.maybeFinishLocked()
}

// skip removes one expected member (a rejected batch item that will never
// produce events).
func (b *batchStream) skip() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.total--
	b.maybeFinishLocked()
}

func (b *batchStream) maybeFinishLocked() {
	if b.summarized || b.terminal < b.total {
		return
	}
	b.summarized = true
	data, _ := json.Marshal(map[string]any{
		"batch":  b.id,
		"total":  b.total,
		"done":   b.terminal - b.failed,
		"failed": b.failed,
	})
	b.log.publish(EventBatch, data, true, b.failed > 0)
}

// BatchInfo is one batch's row in the admin state.
type BatchInfo struct {
	ID       string `json:"id"`
	Total    int    `json:"total"`
	Terminal int    `json:"terminal"`
	Failed   int    `json:"failed"`
	Closed   bool   `json:"closed"`
}

func (b *batchStream) info() BatchInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BatchInfo{ID: b.id, Total: b.total, Terminal: b.terminal, Failed: b.failed, Closed: b.summarized}
}

// BatchItem is one submission's outcome inside a batch: either an admitted
// (possibly already-done) job or a per-item error with its HTTP-shaped
// status code.
type BatchItem struct {
	Job   *JobStatus `json:"job,omitempty"`
	Error string     `json:"error,omitempty"`
	Code  int        `json:"code,omitempty"`
}

// BatchStatus is the POST /v1/jobs:batch response: the batch's ID, its
// aggregate stream path, and per-item outcomes in submission order.
type BatchStatus struct {
	ID string `json:"id"`
	// EventsPath is where the aggregate stream is served.
	EventsPath string      `json:"events_path"`
	Accepted   int         `json:"accepted"`
	Rejected   int         `json:"rejected"`
	Jobs       []BatchItem `json:"jobs"`
}

// ErrBatchEmpty rejects a batch naming no jobs.
var ErrBatchEmpty = errors.New("service: batch names no jobs")

// ErrBatchTooLarge rejects a batch over maxBatchJobs items.
var ErrBatchTooLarge = fmt.Errorf("service: batch exceeds %d jobs", maxBatchJobs)

// SubmitBatch admits every request as its own job (sharing one aggregate
// stream) and reports per-item outcomes. The batch as a whole only fails on
// malformed shape (empty or oversized); individual rejections — unknown
// experiment, quota, queue full — land in their item.
func (s *Scheduler) SubmitBatch(ctx context.Context, reqs []Request) (BatchStatus, error) {
	if len(reqs) == 0 {
		return BatchStatus{}, ErrBatchEmpty
	}
	if len(reqs) > maxBatchJobs {
		return BatchStatus{}, ErrBatchTooLarge
	}
	b := s.newBatch(len(reqs))
	out := BatchStatus{ID: b.id, EventsPath: "/v1/batches/" + b.id + "/events"}
	for _, req := range reqs {
		j, err := s.submit(ctx, req)
		if err != nil {
			b.skip()
			out.Rejected++
			out.Jobs = append(out.Jobs, BatchItem{Error: err.Error(), Code: submitErrorCode(err)})
			continue
		}
		out.Accepted++
		s.attach(j, b)
		st := j.status()
		out.Jobs = append(out.Jobs, BatchItem{Job: &st})
	}
	s.mu.Lock()
	s.releaseBatchLocked(b)
	s.mu.Unlock()
	return out, nil
}

// attach makes admitted job j a member of batch b: j's events, past and
// future, flow into b's stream, and while j stays in the job table it
// keeps b there too. j may already be finished, and even evicted, by the
// time its submission returns; a job served at admission keeps no log, so
// its terminal state event goes to b directly.
func (s *Scheduler) attach(j *job, b *batchStream) {
	s.mu.Lock()
	if s.jobs[j.id] == j {
		b.held++
		j.batches = append(j.batches, b)
	}
	s.mu.Unlock()
	if j.events != nil {
		j.events.attach(b)
		return
	}
	st := j.status()
	if data, err := json.Marshal(st); err == nil {
		b.forward(EventState, data, true, st.State == StateFailed)
	}
}

// releaseBatchLocked drops one hold on b, and b itself with the last;
// Scheduler.mu held.
func (s *Scheduler) releaseBatchLocked(b *batchStream) {
	if b.held--; b.held == 0 {
		delete(s.batches, b.id)
	}
}

// newBatch registers a batch stream expecting total member terminals.
func (s *Scheduler) newBatch(total int) *batchStream {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextBatch++
	id := fmt.Sprintf("batch-%d", s.nextBatch)
	if s.cfg.NodeName != "" {
		id = fmt.Sprintf("batch-%s-%d", s.cfg.NodeName, s.nextBatch)
	}
	b := &batchStream{id: id, total: total, held: 1}
	b.log = newEventLog(id, s.cfg.StreamLogCap, s.streams)
	s.batches[id] = b
	return b
}

// submitErrorCode maps a submission error to the HTTP status the plain
// submit endpoint would have returned, for per-item batch outcomes.
func submitErrorCode(err error) int {
	var quota *QuotaError
	var full *QueueFullError
	switch {
	case errors.Is(err, ErrUnknownExperiment):
		return http.StatusBadRequest
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.As(err, &quota), errors.As(err, &full):
		return http.StatusTooManyRequests
	default:
		return http.StatusInternalServerError
	}
}

// BatchSubmitRequest is the POST /v1/jobs:batch body.
type BatchSubmitRequest struct {
	Jobs []SubmitRequest `json:"jobs"`
}

func (s *Scheduler) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	tenant, err := s.authTenant(r)
	if err != nil {
		writeError(w, http.StatusUnauthorized, err)
		return
	}
	var breq BatchSubmitRequest
	if !decodeBody(w, r, &breq) {
		return
	}
	reqs := make([]Request, 0, len(breq.Jobs))
	for _, item := range breq.Jobs {
		req := Request{
			Experiment: item.Experiment,
			Options:    item.Key(),
			Tenant:     item.Tenant,
			Priority:   item.Priority,
			Deadline:   time.Duration(item.DeadlineMS) * time.Millisecond,
		}
		if s.tenants.enabled() {
			req.Tenant = tenant
		}
		reqs = append(reqs, req)
	}
	bs, err := s.SubmitBatch(r.Context(), reqs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, bs)
}
