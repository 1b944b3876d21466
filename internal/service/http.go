package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/store"
)

// The HTTP API cmd/qsmd serves:
//
//	POST   /v1/jobs             submit {"experiment","seed","runs","quick"}
//	POST   /v1/jobs:batch       submit {"jobs":[...]} with per-item outcomes
//	GET    /v1/jobs             list the retained jobs' statuses
//	GET    /v1/jobs/{id}        one job's status
//	GET    /v1/jobs/{id}/events SSE (or NDJSON via Accept) event stream
//	GET    /v1/jobs/{id}/trace  merged wall-clock + sim-time Perfetto trace
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /v1/batches/{id}/events  a batch's aggregate event stream
//	GET    /v1/results/{key}    a cached result entry by content address
//	GET    /v1/admin/state      scheduler/queue/subscriber introspection
//	GET    /healthz             liveness + drain state
//	GET    /metricsz            self-metrics as Prometheus text
//	GET    /statusz             live introspection snapshot (JSON)
//
// Errors are {"error": "..."} with 400 (bad request/unknown experiment),
// 401 (keyed mode, missing/unknown API key), 404 (no such job/result),
// 429 + Retry-After (queue full or tenant over quota), or 503 (draining).
// The job routes keep every queued or running job and the last
// retainedJobs finished ones; the 404 for an older id this scheduler issued
// says its record left the retained window and where its result stays.
//
// Every request runs under TraceMiddleware: the X-Qsm-Trace request header
// (when a valid trace ID) or a freshly minted ID identifies the request, is
// echoed in the response header, stamps an "http" wall-clock span per
// request, and scopes the request's log lines.

// ForwardedHeader marks a request already forwarded once by a cluster node
// (internal/cluster aliases this constant), which then serves it locally
// instead of forwarding it again. It grants nothing: in keyed mode a
// forwarded request carries the client's API key and is checked like any
// other.
const ForwardedHeader = "X-Qsm-Forwarded"

// SubmitRequest is the POST /v1/jobs body. Zero-valued fields take the
// same defaults the CLI uses (seed 0, 5 runs, full sweeps). Tenant,
// priority, and deadline shape queuing only — they never enter the cache
// key, so identical experiments submitted by different tenants share one
// cached result (and one simulation when queued together).
type SubmitRequest struct {
	Experiment string `json:"experiment"`
	Seed       int64  `json:"seed"`
	Runs       int    `json:"runs"`
	Quick      bool   `json:"quick"`
	// Tenant names the submitting tenant for fair queuing; empty shares
	// the default tenant.
	Tenant string `json:"tenant,omitempty"`
	// Priority orders dequeue (higher first, with aging against
	// starvation).
	Priority int `json:"priority,omitempty"`
	// DeadlineMS is the submission's latency budget in milliseconds; among
	// equal aged priorities the earliest deadline dequeues first.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Key reduces the request to the deterministic options view jobs are keyed
// on.
func (r SubmitRequest) Key() experiments.OptionsKey {
	return experiments.Options{Seed: r.Seed, Runs: r.Runs, Quick: r.Quick}.Key()
}

// Handler returns the scheduler's HTTP API.
func (s *Scheduler) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/jobs:batch", s.handleSubmitBatch)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /v1/results/{key}", s.handleGetResult)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleGetJobTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/batches/{id}/events", s.handleBatchEvents)
	mux.HandleFunc("GET /v1/admin/state", s.handleAdminState)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	return mux
}

// statusWriter records the response code so the request span can carry it.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer so SSE streams flush through the
// recorder (embedding only exposes the ResponseWriter method set).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TraceMiddleware scopes each request to a trace: it adopts a valid
// X-Qsm-Trace request header (so a client's submit and polls share one
// trace) or mints a fresh ID, echoes the ID in the response header, wraps
// the request in an "http" wall-clock span carrying method, path, and
// status, and attaches a request-scoped TraceContext (tracer + logger) to
// the request context for the layers below. It must wrap any
// fault-injecting middleware so aborted requests still commit their span.
func (s *Scheduler) TraceMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(obs.TraceHeader)
		if !obs.ValidTraceID(id) {
			id = obs.NewTraceID()
		}
		w.Header().Set(obs.TraceHeader, id)
		tc := &obs.TraceContext{ID: id, Tracer: s.cfg.Tracer, Log: s.logFor(id)}
		r = r.WithContext(obs.WithTraceContext(r.Context(), tc))

		sw := &statusWriter{ResponseWriter: w}
		sp := tc.Start("http", "request", r.Method+" "+r.URL.Path,
			obs.WArg{Key: "method", Val: r.Method},
			obs.WArg{Key: "path", Val: r.URL.Path})
		// End via defer so a fault-injected abort (panic with
		// http.ErrAbortHandler) still commits the span; annotate the
		// outcome first.
		defer func() {
			if v := recover(); v != nil {
				sp.Annotate("status", "aborted")
				sp.End()
				panic(v)
			}
			code := sw.code
			if code == 0 {
				code = http.StatusOK
			}
			sp.Annotate("status", strconv.Itoa(code))
			sp.End()
		}()
		next.ServeHTTP(sw, r)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxBodyBytes caps a submit body. A 256-job batch of ordinary submits is
// under 64 KB, so the cap leaves room for long tenant names.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, refusing unknown fields. On
// failure it writes the answer, 413 for a body over maxBodyBytes and 400
// for any other, and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	writeError(w, code, err)
	return false
}

func (s *Scheduler) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant, authErr := s.authTenant(r)
	if authErr != nil {
		writeError(w, http.StatusUnauthorized, authErr)
		return
	}
	var req SubmitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if s.tenants.enabled() && tenant != "" {
		// The API key, not the body, names the tenant in keyed mode.
		req.Tenant = tenant
	}
	js, err := s.SubmitCtx(r.Context(), Request{
		Experiment: req.Experiment,
		Options:    req.Key(),
		Tenant:     req.Tenant,
		Priority:   req.Priority,
		Deadline:   time.Duration(req.DeadlineMS) * time.Millisecond,
	})
	switch {
	case err == nil:
	case errors.Is(err, ErrUnknownExperiment):
		writeError(w, http.StatusBadRequest, err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	default:
		var quota *QuotaError
		if errors.As(err, &quota) {
			w.Header().Set("Retry-After", retryAfterSeconds(quota.RetryAfter))
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		var full *QueueFullError
		if errors.As(err, &full) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// An admission-time cache hit is already complete; a queued job is
	// accepted for asynchronous execution.
	code := http.StatusAccepted
	if js.State == StateDone {
		code = http.StatusOK
	}
	writeJSON(w, code, js)
}

func (s *Scheduler) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

// jobOr404 returns the retained job the request's {id} names, or writes the
// answer and returns nil: 401 in keyed mode without a tenant's key, 404 for
// an id it does not hold. Every job route reads its job through it.
func (s *Scheduler) jobOr404(w http.ResponseWriter, r *http.Request) *job {
	if _, err := s.authTenant(r); err != nil {
		writeError(w, http.StatusUnauthorized, err)
		return nil
	}
	id := r.PathValue("id")
	j, evicted := s.lookup(id)
	if j == nil {
		writeError(w, http.StatusNotFound, s.missingJob(id, evicted))
	}
	return j
}

func (s *Scheduler) handleGetJob(w http.ResponseWriter, r *http.Request) {
	if j := s.jobOr404(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.status())
	}
}

func (s *Scheduler) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	if j := s.jobOr404(w, r); j != nil {
		j.cancel()
		writeJSON(w, http.StatusOK, map[string]string{"id": j.id, "status": "cancelling"})
	}
}

func (s *Scheduler) handleGetResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !store.ValidKey(key) {
		writeError(w, http.StatusBadRequest, errors.New("service: malformed result key"))
		return
	}
	wire, ok, err := s.cfg.Store.GetBytes(r.Context(), key)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("service: no such result"))
		return
	}
	WriteResult(w, wire)
}

// WriteResult serves a result's stored wire encoding (store.GetBytes) as the
// response body: nothing to decode or encode. The body goes out with its
// Content-Length, so a client reads it into one slice of that size instead
// of growing a buffer through a chunked stream. The cluster's result route
// writes through it too.
func WriteResult(w http.ResponseWriter, wire []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(wire)))
	w.Write(wire)
}

func (s *Scheduler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, HealthStatus{Fingerprint: s.cfg.Fingerprint, Node: s.cfg.NodeName, Status: status})
}

func (s *Scheduler) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WriteMetricsText(w)
}

func (s *Scheduler) handleStatusz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Status())
}

// handleAdminState serves the operator's deep introspection view. In keyed
// mode any configured tenant's API key opens it; anonymous mode leaves it
// open like /statusz.
func (s *Scheduler) handleAdminState(w http.ResponseWriter, r *http.Request) {
	if _, err := s.authTenant(r); err != nil {
		writeError(w, http.StatusUnauthorized, err)
		return
	}
	writeJSON(w, http.StatusOK, s.AdminState())
}

// retryAfterSeconds renders a backoff as whole Retry-After seconds (min 1).
func retryAfterSeconds(d time.Duration) string {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func (s *Scheduler) handleGetJobTrace(w http.ResponseWriter, r *http.Request) {
	j := s.jobOr404(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := s.writeJobTrace(w, j); err != nil && s.cfg.Log.Enabled() {
		s.cfg.Log.Warn("writing job trace failed", "err", err)
	}
}
