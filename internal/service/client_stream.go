package service

// Streaming client: the push-based counterpart to Wait's polling, and the
// way the commands wait for a job. WatchJob subscribes to a job's SSE event
// stream and blocks until the terminal state event arrives, reconnecting
// with Last-Event-ID across transport failures and server-side drop markers
// so no lifecycle event is missed. qsmload builds its time-to-first-event
// and event-gap measurements, and qsmbench -server -progress its progress
// lines, on WatchJobDetail's per-event callback.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// WatchResult summarises one watch: the terminal status (job streams) or
// batch summary (batch streams), plus transport-level accounting the load
// generator reports.
type WatchResult struct {
	// Status is the job's terminal status (job watches only).
	Status JobStatus
	// Summary is the terminal batch summary event's payload (batch watches
	// only).
	Summary json.RawMessage
	// Events counts data events received (markers excluded).
	Events int
	// Reconnects counts stream re-establishments after the first connect.
	Reconnects int
	// Drops counts server-side drop markers observed (each triggers a
	// resume from the marker's resume_id).
	Drops int
	// LastEventID is the highest event ID received.
	LastEventID uint64
}

// streamOutcome classifies why one stream attempt returned.
type streamOutcome int

const (
	streamEnded    streamOutcome = iota // EOF/error before a terminal event
	streamDone                          // terminal event received
	streamResumeAt                      // drop marker: reconnect to replay the gap
)

// WatchJob streams a job's events until it reaches a terminal state and
// returns that status. Reaching a failed state is not an error, matching
// Wait. It reconnects (with the retry policy's backoff) on transport
// failures and resumes from the last received event ID.
func (c *Client) WatchJob(ctx context.Context, id string) (JobStatus, error) {
	res, err := c.WatchJobDetail(ctx, id, 0, nil)
	return res.Status, err
}

// WatchJobDetail streams a job's events starting after afterID, invoking
// onEvent (when non-nil) for every data event received, until the terminal
// state event arrives.
func (c *Client) WatchJobDetail(ctx context.Context, id string, afterID uint64, onEvent func(StreamEvent)) (WatchResult, error) {
	terminal := func(ev StreamEvent, res *WatchResult) bool {
		if ev.Type != EventState {
			return false
		}
		var js JobStatus
		if json.Unmarshal(ev.Data, &js) != nil {
			return false
		}
		res.Status = js
		return js.State == StateDone || js.State == StateFailed
	}
	return c.watchStream(ctx, "/v1/jobs/"+url.PathEscape(id)+"/events", afterID, terminal, onEvent)
}

// WatchBatch streams a batch's aggregate events until the terminal batch
// summary event arrives; its payload lands in the result's Summary.
func (c *Client) WatchBatch(ctx context.Context, id string, afterID uint64, onEvent func(StreamEvent)) (WatchResult, error) {
	terminal := func(ev StreamEvent, res *WatchResult) bool {
		if ev.Type != EventBatch {
			return false
		}
		res.Summary = ev.Data
		return true
	}
	return c.watchStream(ctx, "/v1/batches/"+url.PathEscape(id)+"/events", afterID, terminal, onEvent)
}

// SubmitBatch posts a batch of jobs in one request. The server accepts and
// rejects items independently; inspect the returned per-item outcomes.
func (c *Client) SubmitBatch(ctx context.Context, reqs []SubmitRequest) (BatchStatus, error) {
	var bs BatchStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs:batch", BatchSubmitRequest{Jobs: reqs}, &bs)
	return bs, err
}

// Admin fetches the server's deep introspection snapshot.
func (c *Client) Admin(ctx context.Context) (AdminState, error) {
	var st AdminState
	err := c.do(ctx, http.MethodGet, "/v1/admin/state", nil, &st)
	return st, err
}

// watchStream drives the reconnect loop shared by job and batch watches.
// Consecutive failed attempts are bounded by the retry policy; any received
// event resets the failure budget, so a long stream that dies late still
// gets its full reconnect allowance.
func (c *Client) watchStream(ctx context.Context, path string, afterID uint64, terminal func(StreamEvent, *WatchResult) bool, onEvent func(StreamEvent)) (WatchResult, error) {
	res := WatchResult{LastEventID: afterID}
	attempts := c.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	fails := 0
	first := true
	for {
		status, outcome, err := c.streamOnce(ctx, path, &res, terminal, onEvent)
		if !first {
			res.Reconnects++
		}
		first = false
		switch outcome {
		case streamDone:
			return res, nil
		case streamResumeAt:
			// The server dropped events for this subscriber but kept them in
			// its log: reconnect immediately and replay from the marker's
			// resume point. Not a failure.
			fails = 0
			continue
		}
		if ctx.Err() != nil {
			return res, ctx.Err()
		}
		if err == nil {
			// Stream closed cleanly before the terminal event (server
			// restart, mid-stream fault): resumable.
			err = io.ErrUnexpectedEOF
			status = http.StatusOK
		}
		fails++
		if fails >= attempts || (status != http.StatusOK && !retryable(status, err)) {
			return res, fmt.Errorf("qsmd: watch %s: %w", path, err)
		}
		c.log().Warn("stream attempt failed, resuming",
			"path", path, "after", res.LastEventID, "attempt", fails, "err", err)
		t := time.NewTimer(c.backoff(fails))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return res, ctx.Err()
		}
	}
}

// streamOnce opens one stream connection and consumes events until a
// terminal event, a drop marker, or the connection ends.
func (c *Client) streamOnce(ctx context.Context, path string, res *WatchResult, terminal func(StreamEvent, *WatchResult) bool, onEvent func(StreamEvent)) (int, streamOutcome, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(path), nil)
	if err != nil {
		return 0, streamEnded, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if res.LastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(res.LastEventID, 10))
	}
	if id := c.traceID(ctx); id != "" {
		req.Header.Set("X-Qsm-Trace", id)
	}
	for k, v := range c.Headers {
		req.Header.Set(k, v)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return 0, streamEnded, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return resp.StatusCode, streamEnded, fmt.Errorf("qsmd: %s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return resp.StatusCode, streamEnded, fmt.Errorf("qsmd: HTTP %d", resp.StatusCode)
	}
	dec := NewSSEDecoder(resp.Body)
	for {
		ev, err := dec.Next()
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return resp.StatusCode, streamEnded, err
		}
		if ev.Type == EventDropped {
			// res.LastEventID already equals the marker's resume_id (the
			// last event actually written to us); reconnecting replays the
			// gap from the server's event log.
			res.Drops++
			return resp.StatusCode, streamResumeAt, nil
		}
		if ev.ID > 0 {
			res.LastEventID = ev.ID
		}
		res.Events++
		if onEvent != nil {
			onEvent(ev)
		}
		if terminal(ev, res) {
			return resp.StatusCode, streamDone, nil
		}
	}
}
