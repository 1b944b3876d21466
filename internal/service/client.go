package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/store"
)

// RetryPolicy bounds client-side retries of transient request failures:
// transport errors (connection refused, dropped responses), HTTP 5xx, and
// 429. Backoff between attempts is capped exponential with equal jitter,
// seeded so a run's retry timing is reproducible.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per request; <= 1 disables
	// retries.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further retry
	// doubles it up to MaxBackoff. Zero values mean 50ms base, 2s cap.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed drives the jitter stream; the same seed replays the same backoff
	// schedule.
	Seed int64
}

// Client talks to a qsmd server; qsmbench -server is built on it.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8344".
	BaseURL string
	// HTTP overrides the transport; nil means http.DefaultClient.
	HTTP *http.Client
	// Retry bounds per-request retries; the zero value makes every request
	// single-shot.
	Retry RetryPolicy
	// RequestTimeout bounds each attempt (not the whole retry loop), layered
	// under the caller's context. 0 means no per-attempt limit.
	RequestTimeout time.Duration
	// TraceID, when a valid trace ID, is sent as the X-Qsm-Trace header on
	// every request — every attempt of every retry reuses the same ID, so
	// the server stitches a whole client conversation (submit, polls,
	// result fetch) into one trace. Empty disables propagation; the server
	// then mints a fresh ID per request. When TraceID is empty but the
	// request context carries an obs.TraceContext, that context's ID is
	// propagated instead — this is how a cluster node forwarding a request
	// keeps the inbound request's trace ID on the hop to the owning peer.
	TraceID string
	// Headers, when non-nil, is added to every request. Cluster peer
	// clients use it to mark forwarded requests (X-Qsm-Forwarded) so the
	// receiving node serves them locally instead of re-forwarding.
	Headers map[string]string
	// Tracer, when non-nil, records one "client"-layer wall-clock span per
	// attempt (retries get their own spans under the same trace ID).
	Tracer *obs.WallTracer
	// Log, when enabled, records one line per retried attempt and per
	// exhausted retry budget.
	Log *obs.Logger

	jitterMu sync.Mutex
	jitter   *rand.Rand
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.BaseURL, "/") + path
}

// backoff returns the equal-jitter delay before retry number n (1-based):
// half the capped exponential step plus a seeded random draw of the other
// half.
func (c *Client) backoff(n int) time.Duration {
	base := c.Retry.BaseBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxB := c.Retry.MaxBackoff
	if maxB <= 0 {
		maxB = 2 * time.Second
	}
	d := base << (n - 1)
	if d <= 0 || d > maxB { // <= 0 catches shift overflow
		d = maxB
	}
	c.jitterMu.Lock()
	if c.jitter == nil {
		c.jitter = stats.NewRand(c.Retry.Seed, 0x636c69656e74) // "client"
	}
	half := d / 2
	d = half + time.Duration(c.jitter.Int63n(int64(half)+1))
	c.jitterMu.Unlock()
	return d
}

// retryable reports whether an attempt outcome warrants another try:
// transport-level failures (status 0), server errors, and queue-full
// pushback. Other 4xx are the caller's bug and retrying cannot help.
func retryable(status int, err error) bool {
	if err != nil && status == 0 {
		return true
	}
	return status >= 500 || status == http.StatusTooManyRequests
}

// do issues a request with bounded retries, decoding the JSON response into
// out. Each attempt runs under RequestTimeout; transient failures back off
// and retry while the policy's budget and the caller's context allow.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return err
		}
	}
	return c.send(ctx, method, path, data, out)
}

// send is do for a request body that is already encoded (nil for none).
func (c *Client) send(ctx context.Context, method, path string, data []byte, out any) error {
	attempts := c.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for n := 1; ; n++ {
		status, err := c.once(ctx, method, path, data, out, n)
		if err == nil {
			return nil
		}
		lastErr = err
		if n >= attempts || ctx.Err() != nil || !retryable(status, err) {
			if n > 1 {
				c.log().Warn("request failed after retries",
					"method", method, "path", path, "attempts", n, "err", lastErr)
				return fmt.Errorf("qsmd: %d attempts failed: %w", n, lastErr)
			}
			return lastErr
		}
		c.log().Warn("request attempt failed, retrying",
			"method", method, "path", path, "attempt", n, "status", status, "err", err)
		t := time.NewTimer(c.backoff(n))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("qsmd: %d attempts failed: %w", n, lastErr)
		}
	}
}

// log returns the client's logger scoped to its trace ID (nil-safe).
func (c *Client) log() *obs.Logger {
	if c.Log.Enabled() && obs.ValidTraceID(c.TraceID) {
		return c.Log.With("trace_id", c.TraceID)
	}
	return c.Log
}

// traceID resolves the ID propagated with a request: the client's own
// TraceID when set, else the ID of an obs.TraceContext carried by ctx.
func (c *Client) traceID(ctx context.Context) string {
	if obs.ValidTraceID(c.TraceID) {
		return c.TraceID
	}
	if tc := obs.TraceContextFrom(ctx); tc != nil && obs.ValidTraceID(tc.ID) {
		return tc.ID
	}
	return ""
}

// once issues a single attempt. The returned status is 0 for
// transport-level failures and the HTTP status otherwise.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any, attempt int) (status int, err error) {
	traceID := c.traceID(ctx)
	if c.Tracer.Enabled() && obs.ValidTraceID(traceID) {
		sp := c.Tracer.Start(traceID, "client", "request",
			method+" "+path,
			obs.WArg{Key: "attempt", Val: strconv.Itoa(attempt)})
		defer func() {
			if err != nil {
				sp.Annotate("error", err.Error())
			} else {
				sp.Annotate("status", strconv.Itoa(status))
			}
			sp.End()
		}()
	}
	if c.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.RequestTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if obs.ValidTraceID(traceID) {
		req.Header.Set(obs.TraceHeader, traceID)
	}
	for k, v := range c.Headers {
		req.Header.Set(k, v)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return resp.StatusCode, fmt.Errorf("qsmd: %s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return resp.StatusCode, fmt.Errorf("qsmd: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return resp.StatusCode, nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// Submit posts one job.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (JobStatus, error) {
	var js JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &js)
	return js, err
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var js JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &js)
	return js, err
}

// Result fetches a cached result entry by content address.
func (c *Client) Result(ctx context.Context, key string) (*store.Entry, error) {
	var e store.Entry
	if err := c.do(ctx, http.MethodGet, "/v1/results/"+url.PathEscape(key), nil, &e); err != nil {
		return nil, err
	}
	return &e, nil
}

// PutResult pushes a result entry's wire encoding (store.GetBytes) to the
// server's store; cluster nodes use it to replicate an owner's freshly
// computed entries to the key's successor replicas. The receiving node
// decodes the body and verifies the entry's key and checksum before
// accepting it.
func (c *Client) PutResult(ctx context.Context, key string, wire []byte) error {
	return c.send(ctx, http.MethodPut, "/v1/results/"+url.PathEscape(key), wire, nil)
}

// HealthStatus is the /healthz payload. Its fields are in name order, the
// order the endpoint has always written them in.
type HealthStatus struct {
	Fingerprint string `json:"fingerprint"`
	// Node is the scheduler's node name; cluster nodes learn each other's
	// names from it to route job IDs. Omitted on a single node.
	Node   string `json:"node,omitempty"`
	Status string `json:"status"`
}

// Health fetches the server's liveness, code fingerprint and node name;
// cluster health checks use it to detect dead peers and fingerprint skew
// and to learn which peer a job ID names.
func (c *Client) Health(ctx context.Context) (HealthStatus, error) {
	var h HealthStatus
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// JobTrace fetches a job's merged Perfetto trace as raw JSON.
func (c *Client) JobTrace(ctx context.Context, id string) (json.RawMessage, error) {
	var raw json.RawMessage
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/trace", nil, &raw); err != nil {
		return nil, err
	}
	return raw, nil
}

// Cancel requests cancellation of a job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, nil)
}

// Wait polls a job at the given interval until it reaches a terminal state
// (done or failed), calling onPoll (when non-nil) with each observed
// status. It returns the terminal status; reaching a terminal state is not
// an error even when the job failed. No command polls: they wait on the
// event stream (WatchJob, WatchJobDetail). Wait stays for the tests that
// pin the polling read path.
func (c *Client) Wait(ctx context.Context, id string, interval time.Duration, onPoll func(JobStatus)) (JobStatus, error) {
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		js, err := c.Job(ctx, id)
		if err != nil {
			return js, err
		}
		if onPoll != nil {
			onPoll(js)
		}
		if js.State == StateDone || js.State == StateFailed {
			return js, nil
		}
		select {
		case <-ctx.Done():
			return js, ctx.Err()
		case <-t.C:
		}
	}
}
