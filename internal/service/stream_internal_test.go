package service

// In-package backpressure tests: the publisher side of the streaming layer
// must never block on a consumer. These drive eventLog and serveStream
// directly with a tiny buffer and a deliberately stuck writer, pinning the
// properties the scheduler depends on — publish returns in bounded time no
// matter what subscribers do, a slow subscriber loses events only for
// itself, and the gap it suffers is surfaced as a dropped marker whose
// resume_id is exactly the last event it was sent.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
)

// publishN appends n state-like events to l.
func publishN(l *eventLog, from, n int) {
	for i := 0; i < n; i++ {
		l.publish(EventProgress, []byte(fmt.Sprintf(`{"seq":%d}`, from+i)), false, false)
	}
}

// TestPublishNeverBlocksOnStuckSubscriber is the scheduler-safety property:
// publish must return promptly even when a subscriber's buffer is full and
// nobody is draining it. Run under -race this also proves the fan-out path
// is properly synchronized.
func TestPublishNeverBlocksOnStuckSubscriber(t *testing.T) {
	hub := newStreamHub()
	l := newEventLog("job-x", 64, hub)
	sub, cancel := l.subscribe(0, "test", 2)
	defer cancel()

	done := make(chan struct{})
	go func() {
		publishN(l, 1, 100) // 50x the subscriber's buffer, never drained
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publish blocked on a stuck subscriber")
	}

	if got := sub.dropped.Load(); got != 98 {
		t.Errorf("subscriber dropped = %d, want 98 (100 published into a 2-slot buffer)", got)
	}
	if got := hub.dropped.Load(); got != 98 {
		t.Errorf("hub dropped = %d, want 98", got)
	}
	if got := hub.published.Load(); got != 100 {
		t.Errorf("hub published = %d, want 100", got)
	}
}

// TestSlowSubscriberDoesNotStarveOthers: one stuck consumer and one healthy
// consumer on the same log; the healthy one receives every event.
func TestSlowSubscriberDoesNotStarveOthers(t *testing.T) {
	l := newEventLog("job-x", 64, newStreamHub())
	stuck, cancelStuck := l.subscribe(0, "stuck", 1)
	defer cancelStuck()
	healthy, cancelHealthy := l.subscribe(0, "healthy", 64)
	defer cancelHealthy()

	publishN(l, 1, 32)
	l.publish(EventState, []byte(`{"state":"done"}`), true, false)

	<-healthy.done
	var got int
	for {
		select {
		case <-healthy.ch:
			got++
			continue
		default:
		}
		break
	}
	if got != 33 {
		t.Errorf("healthy subscriber received %d events, want all 33", got)
	}
	if stuck.dropped.Load() == 0 {
		t.Error("stuck subscriber dropped nothing; the backpressure path never engaged")
	}
}

// stallingRecorder is a ResponseWriter whose Write blocks until released,
// simulating a consumer that stops reading while the handler tries to flush
// events to it.
type stallingRecorder struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	header  http.Header
	stalled chan struct{} // closed once a Write has blocked
	release chan struct{}
	once    sync.Once
}

func newStallingRecorder() *stallingRecorder {
	return &stallingRecorder{
		header:  http.Header{},
		stalled: make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (w *stallingRecorder) Header() http.Header { return w.header }
func (w *stallingRecorder) WriteHeader(int)     {}
func (w *stallingRecorder) Flush()              {}

func (w *stallingRecorder) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.stalled) })
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *stallingRecorder) contents() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestServeStreamEmitsDroppedMarkerWithResumeID drives the full handler
// against a consumer that stalls mid-stream: the handler's first write
// blocks (the subscriber channel backs up and overflows), publishing
// continues unharmed, and once the consumer unsticks, the handler surfaces
// the gap as an id-less dropped marker whose resume_id is the last event it
// actually delivered — the ID a reconnecting client would resume from.
func TestServeStreamEmitsDroppedMarkerWithResumeID(t *testing.T) {
	s := &Scheduler{cfg: Config{StreamBuffer: 2, StreamHeartbeat: time.Hour}}
	s.streams = newStreamHub()
	l := newEventLog("job-x", 64, s.streams)

	// Publishing event 1 before the handler exists makes the schedule
	// deterministic: the subscription replays it (one extra buffer slot on
	// top of StreamBuffer=2), the handler pulls it and wedges in the stalled
	// Write, and exactly events 2-4 fit in the buffer behind it.
	l.publish(EventProgress, []byte(`{"seq":1}`), false, false)

	w := newStallingRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/job-x/events", nil)
	served := make(chan struct{})
	go func() {
		s.serveStream(w, req, l)
		close(served)
	}()
	select {
	case <-w.stalled:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never attempted a write")
	}

	// With the handler wedged, the publisher keeps going: the buffer absorbs
	// three events and the rest drop. publish must stay prompt.
	start := time.Now()
	publishN(l, 2, 20)
	l.publish(EventState, []byte(`{"state":"done"}`), true, false)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("publishing against a wedged handler took %v", elapsed)
	}

	close(w.release)
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not finish after the consumer unstuck")
	}

	// The wire now holds: event 1, events 2-4 (buffered before the overflow),
	// a dropped marker for the gap, and nothing with a later id (the marker
	// deliberately carries none, keeping the client's Last-Event-ID at the
	// resume point).
	var events []StreamEvent
	var markers []map[string]uint64
	dec := NewSSEDecoder(strings.NewReader(w.contents()))
	for {
		ev, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ev.Type == EventDropped {
			if ev.ID != 0 {
				t.Errorf("dropped marker carries id %d, want none", ev.ID)
			}
			var m map[string]uint64
			if err := json.Unmarshal(ev.Data, &m); err != nil {
				t.Fatalf("marker payload %q: %v", ev.Data, err)
			}
			markers = append(markers, m)
			continue
		}
		events = append(events, ev)
	}
	if len(events) != 4 {
		t.Fatalf("delivered events = %+v, want exactly the 4 that fit (1 in flight + 3 buffered)", events)
	}
	if len(markers) == 0 {
		t.Fatal("no dropped marker on the wire despite a delivery gap")
	}
	lastDelivered := events[len(events)-1].ID
	m := markers[0]
	if m["resume_id"] != lastDelivered {
		t.Errorf("marker resume_id = %d, want last delivered ID %d", m["resume_id"], lastDelivered)
	}
	if m["dropped"] == 0 {
		t.Error("marker reports zero dropped events")
	}
	if s.streams.dropped.Load() == 0 {
		t.Error("hub drop counter never moved")
	}
}

// TestProgressNeverGoesBackwards: several goroutines report progress on one
// watched job at once, as a sweep's simulation workers do. Every run is
// published, and the done counts on the job's stream strictly increase.
func TestProgressNeverGoesBackwards(t *testing.T) {
	const workers, each = 8, 500
	j := &job{id: "job-x", events: newEventLog("job-x", workers*each+1, newStreamHub())}
	sub, cancel := j.events.subscribe(0, "test", workers*each+1)
	defer cancel()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				j.onProgress(experiments.Progress{Points: 1, Runs: workers * each})
			}
		}()
	}
	wg.Wait()
	j.events.publish(EventState, []byte(`{"state":"done"}`), true, false)
	<-sub.done
	last := 0
	for range len(sub.ch) {
		ev := <-sub.ch
		if ev.Type != EventProgress {
			continue
		}
		var p JobProgress
		if err := json.Unmarshal(ev.Data, &p); err != nil {
			t.Fatal(err)
		}
		if p.Done <= last {
			t.Fatalf("event %d carries done %d after %d; progress must strictly increase", ev.ID, p.Done, last)
		}
		last = p.Done
	}
	if last != workers*each {
		t.Errorf("last published done = %d, want %d", last, workers*each)
	}
}
