package service

// The push side of the API: per-job (and per-batch) event streams served
// over SSE on GET /v1/jobs/{id}/events, with an NDJSON fallback negotiated
// via Accept. Every job carries a bounded eventLog of its lifecycle (state)
// and progress events; subscribers fan out through non-blocking buffered
// channels, so a slow or stuck consumer can never hold a scheduler worker —
// its overflowed events are dropped and the writer emits an EventDropped
// marker carrying the resume ID, from which a reconnect with Last-Event-ID
// replays the gap out of the retained log. Publishing is independent of
// delivery: a job's lifecycle transition appends and returns; all blocking
// I/O happens on the per-connection handler goroutine.
//
// Resume semantics: event IDs are 1-based and contiguous per stream. A
// client reconnecting with Last-Event-ID: K (or ?after=K) replays every
// retained event with ID > K. If the log has trimmed past K the first
// delivered event exposes the gap and the writer emits a dropped marker
// first, so clients always learn what they missed. The stream ends (the
// handler returns, closing the response) after the terminal state event is
// delivered.
//
// The stream_drop and stream_stall fault classes act in the writer between
// event encodes — exactly where real connections die — so the chaos harness
// can kill and stall streams mid-flight deterministically.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/obs"
)

const (
	// defaultStreamBuffer is each subscriber's in-flight event buffer.
	defaultStreamBuffer = 64
	// defaultStreamLogCap is the retained per-stream event log replayed on
	// resume.
	defaultStreamLogCap = 256
	// defaultStreamHeartbeat is the idle-connection heartbeat period.
	defaultStreamHeartbeat = 15 * time.Second
	// maxBatchJobs bounds one POST /v1/jobs:batch submission.
	maxBatchJobs = 256
)

// streamHub aggregates stream self-metrics and the live subscriber registry
// the admin endpoint reports.
type streamHub struct {
	opened    atomic.Uint64 // subscriptions ever opened
	active    atomic.Int64  // currently connected subscribers
	published atomic.Uint64 // events appended across all streams
	dropped   atomic.Uint64 // events dropped on full subscriber buffers

	mu   sync.Mutex
	subs map[*subscriber]struct{}
}

func newStreamHub() *streamHub { return &streamHub{subs: map[*subscriber]struct{}{}} }

// subscriber is one connected stream consumer. The publisher never blocks
// on it: events flow through the buffered channel or are counted as
// dropped; done closes (idempotently) when the stream reaches its terminal
// event.
type subscriber struct {
	stream string
	remote string
	since  time.Time
	ch     chan StreamEvent
	done   chan struct{}
	end    sync.Once

	sent    atomic.Uint64 // last event ID written to the wire
	dropped atomic.Uint64 // events this subscriber's buffer rejected
}

func (sub *subscriber) finish() { sub.end.Do(func() { close(sub.done) }) }

// eventLog is one stream's bounded, replayable event history plus its live
// subscribers. All methods are safe for concurrent use; publish never
// blocks.
type eventLog struct {
	stream string
	cap    int
	hub    *streamHub

	mu     sync.Mutex
	events []StreamEvent // retained tail, oldest first
	lastID uint64
	closed bool
	// failedEnd remembers whether the terminal event was a failure, for
	// batch accounting when a closed log replays into a late attach.
	failedEnd bool
	subs      map[*subscriber]struct{}
	fwd       []*batchStream // attached batch aggregates (job streams only)
}

func newEventLog(stream string, capacity int, hub *streamHub) *eventLog {
	if capacity <= 0 {
		capacity = defaultStreamLogCap
	}
	return &eventLog{stream: stream, cap: capacity, hub: hub, subs: map[*subscriber]struct{}{}}
}

// publish appends one event, fans it out without blocking (a full
// subscriber buffer drops the event; the writer later surfaces the gap as
// an EventDropped marker), mirrors it into attached batch streams, and
// closes the stream after a terminal event. failed qualifies a terminal
// event for batch accounting.
func (l *eventLog) publish(typ string, data []byte, terminal, failed bool) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.lastID++
	ev := StreamEvent{ID: l.lastID, Type: typ, Data: data}
	l.events = append(l.events, ev)
	if len(l.events) > l.cap {
		l.events = append(l.events[:0], l.events[len(l.events)-l.cap:]...)
	}
	if l.hub != nil {
		l.hub.published.Add(1)
	}
	for sub := range l.subs {
		select {
		case sub.ch <- ev:
		default:
			sub.dropped.Add(1)
			if l.hub != nil {
				l.hub.dropped.Add(1)
			}
		}
	}
	if terminal {
		l.closed = true
		l.failedEnd = failed
		for sub := range l.subs {
			sub.finish()
		}
	}
	fwd := l.fwd
	l.mu.Unlock()
	for _, b := range fwd {
		b.forward(typ, data, terminal, failed)
	}
}

// watched reports whether anything consumes this log right now (a live
// subscriber or an attached batch); progress publishing is skipped when
// nothing watches, so idle jobs pay nothing per progress callback.
func (l *eventLog) watched() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.subs) > 0 || len(l.fwd) > 0
}

// last returns the newest event ID and whether the stream has closed.
func (l *eventLog) last() (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastID, l.closed
}

// attach mirrors l's events — those already retained and all future ones —
// into batch stream b. The replay happens under l's lock, so b sees each
// member event exactly once, in publish order, with the member's terminal
// flagged for batch completion accounting.
func (l *eventLog) attach(b *batchStream) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, ev := range l.events {
		terminal := l.closed && i == len(l.events)-1
		b.forward(ev.Type, ev.Data, terminal, terminal && l.failedEnd)
	}
	if !l.closed {
		l.fwd = append(l.fwd, b)
	}
}

// subscribe registers a consumer resuming after afterID: retained events
// with greater IDs are preloaded into the buffer, live events follow, and a
// stream that already closed finishes the subscription as soon as the
// replay drains. The returned cancel is idempotent and must be called when
// the consumer disconnects.
func (l *eventLog) subscribe(afterID uint64, remote string, buffer int) (*subscriber, func()) {
	if buffer <= 0 {
		buffer = defaultStreamBuffer
	}
	l.mu.Lock()
	var replay []StreamEvent
	for _, ev := range l.events {
		if ev.ID > afterID {
			replay = append(replay, ev)
		}
	}
	sub := &subscriber{
		stream: l.stream,
		remote: remote,
		since:  time.Now(),
		ch:     make(chan StreamEvent, buffer+len(replay)),
		done:   make(chan struct{}),
	}
	for _, ev := range replay {
		sub.ch <- ev
	}
	l.subs[sub] = struct{}{}
	closed := l.closed
	l.mu.Unlock()
	if closed {
		sub.finish()
	}
	if l.hub != nil {
		l.hub.opened.Add(1)
		l.hub.active.Add(1)
		l.hub.mu.Lock()
		l.hub.subs[sub] = struct{}{}
		l.hub.mu.Unlock()
	}
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			l.mu.Lock()
			delete(l.subs, sub)
			l.mu.Unlock()
			sub.finish()
			if l.hub != nil {
				l.hub.active.Add(-1)
				l.hub.mu.Lock()
				delete(l.hub.subs, sub)
				l.hub.mu.Unlock()
			}
		})
	}
	return sub, cancel
}

// publishState appends a lifecycle event, closing the stream on a terminal
// one.
func (l *eventLog) publishState(st JobStatus) {
	data, err := json.Marshal(st)
	if err != nil {
		return
	}
	terminal := st.State == StateDone || st.State == StateFailed
	l.publish(EventState, data, terminal, st.State == StateFailed)
}

// streamLog returns the log behind j's event stream. A job served at
// admission keeps none: its whole stream is the one terminal state event,
// rebuilt here for the subscriber that asks.
func (s *Scheduler) streamLog(j *job) *eventLog {
	if j.events != nil {
		return j.events
	}
	l := newEventLog(j.id, 1, s.streams)
	l.publishState(j.status())
	return l
}

// onProgress feeds experiments.Options.Progress; it runs on simulation
// worker goroutines. It counts the finished run and, when anything watches
// the job, publishes the count in the same hold of j.mu, so the done values
// on one job's stream strictly increase. An unwatched job skips the marshal
// and the append, so streaming costs nothing on jobs nobody subscribed to.
// Lock order: j.mu, then eventLog.mu, then a batch forward (batchStream.mu,
// then the batch's eventLog.mu); no path takes j.mu under any of those.
func (j *job) onProgress(p experiments.Progress) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.progress.Done++
	j.progress.SweepPoints = p.Points
	j.progress.SweepRuns = p.Runs
	if j.events == nil || !j.events.watched() {
		return
	}
	data, err := json.Marshal(struct {
		Job string `json:"job"`
		JobProgress
	}{Job: j.id, JobProgress: j.progress})
	if err == nil {
		j.events.publish(EventProgress, data, false, false)
	}
}

// resumeAfter extracts the stream resume position: the Last-Event-ID header
// (what SSE clients send on reconnect) or the ?after= query fallback.
func resumeAfter(r *http.Request) uint64 {
	v := r.Header.Get("Last-Event-ID")
	if v == "" {
		v = r.URL.Query().Get("after")
	}
	n, _ := strconv.ParseUint(v, 10, 64)
	return n
}

func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

func (s *Scheduler) streamBuffer() int {
	if s.cfg.StreamBuffer > 0 {
		return s.cfg.StreamBuffer
	}
	return defaultStreamBuffer
}

func (s *Scheduler) streamHeartbeat() time.Duration {
	if s.cfg.StreamHeartbeat > 0 {
		return s.cfg.StreamHeartbeat
	}
	return defaultStreamHeartbeat
}

func (s *Scheduler) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if j := s.jobOr404(w, r); j != nil {
		s.serveStream(w, r, s.streamLog(j))
	}
}

func (s *Scheduler) handleBatchEvents(w http.ResponseWriter, r *http.Request) {
	if _, err := s.authTenant(r); err != nil {
		writeError(w, http.StatusUnauthorized, err)
		return
	}
	s.mu.Lock()
	b, ok := s.batches[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("service: no such batch"))
		return
	}
	s.serveStream(w, r, b.log)
}

// serveStream writes l's events to one connection until the stream's
// terminal event is delivered, the client goes away, or an injected stream
// fault kills the connection. Heartbeat comments keep idle connections
// distinguishable from dead ones.
func (s *Scheduler) serveStream(w http.ResponseWriter, r *http.Request, l *eventLog) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("service: response writer cannot stream"))
		return
	}
	after := resumeAfter(r)
	ndjson := wantsNDJSON(r)
	ctype := "text/event-stream"
	if ndjson {
		ctype = "application/x-ndjson"
	}
	w.Header().Set("Content-Type", ctype)
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	sub, cancel := l.subscribe(after, r.RemoteAddr, s.streamBuffer())
	defer cancel()

	log := obs.TraceContextFrom(r.Context()).Logger()
	if log == nil {
		log = s.cfg.Log
	}
	log.Info("stream opened", "stream", l.stream, "after", after, "format", ctype)
	defer log.Info("stream closed", "stream", l.stream)

	lastWritten := after
	emit := func(ev StreamEvent) error {
		if s.cfg.Faults.Fire(faults.StreamDrop) {
			log.Warn("injected stream drop", "fault", faults.StreamDrop.String(), "stream", l.stream)
			panic(http.ErrAbortHandler)
		}
		if d := s.cfg.Faults.Delay(faults.StreamStall); d > 0 {
			log.Warn("injected stream stall", "fault", faults.StreamStall.String(), "stream", l.stream, "delay", d)
			select {
			case <-time.After(d):
			case <-r.Context().Done():
				return r.Context().Err()
			}
		}
		var err error
		if ndjson {
			var buf []byte
			if buf, err = json.Marshal(ev); err == nil {
				buf = append(buf, '\n')
				_, err = w.Write(buf)
			}
		} else {
			err = EncodeSSE(w, ev)
		}
		if err != nil {
			return err
		}
		flusher.Flush()
		if ev.ID > 0 {
			sub.sent.Store(ev.ID)
		}
		return nil
	}
	// marker surfaces a delivery gap: n events after lastWritten never made
	// this subscriber's buffer. The frame carries no SSE id on purpose — the
	// client's Last-Event-ID stays at the last delivered event, so a
	// reconnect replays the gap from the retained log.
	marker := func(n uint64) error {
		data, _ := json.Marshal(map[string]uint64{"dropped": n, "resume_id": lastWritten})
		return emit(StreamEvent{Type: EventDropped, Data: data})
	}
	deliver := func(ev StreamEvent) error {
		if ev.ID > lastWritten+1 {
			if err := marker(ev.ID - lastWritten - 1); err != nil {
				return err
			}
		}
		if err := emit(ev); err != nil {
			return err
		}
		lastWritten = ev.ID
		return nil
	}

	tick := time.NewTicker(s.streamHeartbeat())
	defer tick.Stop()
	for {
		select {
		case ev := <-sub.ch:
			if deliver(ev) != nil {
				return
			}
		case <-sub.done:
			// Terminal event published: drain what is buffered, then flag
			// any still-undelivered tail (a drop that swallowed the terminal
			// event) so the client knows to resume.
			for {
				select {
				case ev := <-sub.ch:
					if deliver(ev) != nil {
						return
					}
				default:
					if last, _ := l.last(); last > lastWritten {
						marker(last - lastWritten)
					}
					return
				}
			}
		case <-tick.C:
			var err error
			if ndjson {
				_, err = fmt.Fprintln(w, `{"event":"heartbeat"}`)
			} else {
				err = WriteSSEComment(w, "hb")
			}
			if err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// StreamStatus summarises the streaming layer for /statusz and qsmtop.
type StreamStatus struct {
	Subscribers int64  `json:"subscribers"`
	Opened      uint64 `json:"opened"`
	Published   uint64 `json:"published"`
	Dropped     uint64 `json:"dropped"`
}

func (h *streamHub) status() StreamStatus {
	return StreamStatus{
		Subscribers: h.active.Load(),
		Opened:      h.opened.Load(),
		Published:   h.published.Load(),
		Dropped:     h.dropped.Load(),
	}
}

// SubscriberInfo is one live stream consumer in the admin state.
type SubscriberInfo struct {
	Stream       string  `json:"stream"`
	Remote       string  `json:"remote,omitempty"`
	SinceSeconds float64 `json:"since_seconds"`
	LastSentID   uint64  `json:"last_sent_id"`
	Buffered     int     `json:"buffered"`
	Dropped      uint64  `json:"dropped"`
}

func (h *streamHub) subscribers() []SubscriberInfo {
	h.mu.Lock()
	subs := make([]*subscriber, 0, len(h.subs))
	for sub := range h.subs {
		subs = append(subs, sub)
	}
	h.mu.Unlock()
	out := make([]SubscriberInfo, 0, len(subs))
	for _, sub := range subs {
		out = append(out, SubscriberInfo{
			Stream:       sub.stream,
			Remote:       sub.remote,
			SinceSeconds: time.Since(sub.since).Seconds(),
			LastSentID:   sub.sent.Load(),
			Buffered:     len(sub.ch),
			Dropped:      sub.dropped.Load(),
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Stream < out[b].Stream })
	return out
}
