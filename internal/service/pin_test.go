package service_test

// Pins on the observable surface of cache hits, batches and job counts:
// what a client sees of a job served at admission (its status JSON and its
// event stream, byte for byte), the aggregate stream of a batch that mixes
// cached and cold members, and the /statusz job counts after jobs end every
// way a job can end. Timestamps are the only bytes normalised away.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

var (
	createdAtRE = regexp.MustCompile(`"created_at": ?"[^"]*"`)
	elapsedRE   = regexp.MustCompile(`"elapsed_seconds": ?[-+0-9.eE]+`)
)

// normTimes replaces the wall-clock fields of JobStatus JSON, in indented
// or compact form, with fixed values.
func normTimes(b []byte) string {
	s := createdAtRE.ReplaceAllString(string(b), `"created_at":"T"`)
	return elapsedRE.ReplaceAllString(s, `"elapsed_seconds":0`)
}

// httpBody issues one request and returns the status code and whole body.
func httpBody(t *testing.T, method, url, accept, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

const hitStatusPinned = `{
  "id": "job-2",
  "experiment": "fig7",
  "options": {
    "seed": 51,
    "runs": 1,
    "quick": true
  },
  "state": "done",
  "cached": true,
  "cache_key": "bf7c13e346ed1d8e478e86bd9b3f6ae00512f9491cce083df8f2984ab35d5ac0",
  "result_key": "bf7c13e346ed1d8e478e86bd9b3f6ae00512f9491cce083df8f2984ab35d5ac0",
  "progress": {
    "done": 0
  },
  "created_at":"T",
  "elapsed_seconds":0
}
`

const hitEventDataPinned = `{"id":"job-2","experiment":"fig7","options":{"seed":51,"runs":1,"quick":true},"state":"done","cached":true,"cache_key":"bf7c13e346ed1d8e478e86bd9b3f6ae00512f9491cce083df8f2984ab35d5ac0","result_key":"bf7c13e346ed1d8e478e86bd9b3f6ae00512f9491cce083df8f2984ab35d5ac0","progress":{"done":0},"created_at":"T","elapsed_seconds":0}`

// hitJob completes one fig7 job and resubmits it over HTTP, returning the
// server's base URL, the hit's id and the raw submit response body.
func hitJob(t *testing.T, seed int64) (string, string, []byte) {
	t.Helper()
	_, c := newServer(t, service.Config{})
	completedJob(t, c, seed)
	body := `{"experiment":"fig7","seed":` + strconv.FormatInt(seed, 10) + `,"runs":1,"quick":true}`
	code, data := httpBody(t, http.MethodPost, c.BaseURL+"/v1/jobs", "", body)
	if code != http.StatusOK {
		t.Fatalf("resubmit: HTTP %d: %s", code, data)
	}
	var js service.JobStatus
	if err := json.Unmarshal(data, &js); err != nil {
		t.Fatal(err)
	}
	return c.BaseURL, js.ID, data
}

// TestPinHitJobStatusJSON: a job served from the cache at admission answers
// its submit, and every later GET, with the same done status.
func TestPinHitJobStatusJSON(t *testing.T) {
	base, id, submitted := hitJob(t, 51)
	if got := normTimes(submitted); got != hitStatusPinned {
		t.Errorf("hit submit body:\n%s\nwant:\n%s", got, hitStatusPinned)
	}
	code, polled := httpBody(t, http.MethodGet, base+"/v1/jobs/"+id, "", "")
	if code != http.StatusOK {
		t.Fatalf("GET hit: HTTP %d: %s", code, polled)
	}
	if got := normTimes(polled); got != hitStatusPinned {
		t.Errorf("hit GET body:\n%s\nwant:\n%s", got, hitStatusPinned)
	}
}

// TestPinHitEventStream: the event stream of a job served at admission is
// one state event carrying the done status, after which the server closes
// the stream; SSE and NDJSON frame the same event.
func TestPinHitEventStream(t *testing.T) {
	base, id, _ := hitJob(t, 51)
	path := base + "/v1/jobs/" + id + "/events"

	code, sse := httpBody(t, http.MethodGet, path, "text/event-stream", "")
	if code != http.StatusOK {
		t.Fatalf("SSE: HTTP %d: %s", code, sse)
	}
	if want := "id: 1\nevent: state\ndata: " + hitEventDataPinned + "\n\n"; normTimes(sse) != want {
		t.Errorf("SSE bytes:\n%q\nwant:\n%q", normTimes(sse), want)
	}

	code, nd := httpBody(t, http.MethodGet, path, "application/x-ndjson", "")
	if code != http.StatusOK {
		t.Fatalf("NDJSON: HTTP %d: %s", code, nd)
	}
	if want := `{"id":1,"event":"state","data":` + hitEventDataPinned + "}\n"; normTimes(nd) != want {
		t.Errorf("NDJSON bytes:\n%q\nwant:\n%q", normTimes(nd), want)
	}
}

// TestPinBatchMixedCachedCold: a batch whose members are partly served from
// the cache at admission and partly computed still closes its aggregate
// stream with a summary counting every member, after one terminal state
// event per member.
func TestPinBatchMixedCachedCold(t *testing.T) {
	_, c := newServer(t, service.Config{Workers: 2})
	completedJob(t, c, 61)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	bs, err := c.SubmitBatch(ctx, []service.SubmitRequest{
		{Experiment: "fig7", Seed: 61, Runs: 1, Quick: true},
		{Experiment: "fig7", Seed: 62, Runs: 1, Quick: true},
		{Experiment: "fig7", Seed: 61, Runs: 1, Quick: true},
		{Experiment: "fig7", Seed: 63, Runs: 1, Quick: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Accepted != 4 || bs.Rejected != 0 || len(bs.Jobs) != 4 {
		t.Fatalf("batch = %+v, want 4 accepted", bs)
	}
	for _, i := range []int{0, 2} {
		if js := bs.Jobs[i].Job; js == nil || js.State != service.StateDone || !js.Cached {
			t.Errorf("item %d = %+v, want done from the cache at admission", i, bs.Jobs[i])
		}
	}
	for _, i := range []int{1, 3} {
		if js := bs.Jobs[i].Job; js == nil || js.Cached {
			t.Errorf("item %d = %+v, want an admitted cold job", i, bs.Jobs[i])
		}
	}

	var doneEvents int
	res, err := c.WatchBatch(ctx, bs.ID, 0, func(ev service.StreamEvent) {
		if ev.Type != service.EventState {
			return
		}
		var js service.JobStatus
		if json.Unmarshal(ev.Data, &js) == nil && js.State == service.StateDone {
			doneEvents++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum batchSummary
	if err := json.Unmarshal(res.Summary, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Batch != bs.ID || sum.Total != 4 || sum.Done != 4 || sum.Failed != 0 {
		t.Errorf("summary = %+v, want 4 done of 4 on %s", sum, bs.ID)
	}
	if doneEvents != 4 {
		t.Errorf("aggregate stream carried %d done state events, want 4", doneEvents)
	}
}

// TestPinStatusJobCounts: after jobs end done (computed, from the cache,
// holding the worker), failed and cancelled while queued, Status counts
// each once and nothing as queued or running.
func TestPinStatusJobCounts(t *testing.T) {
	started, release := resetBlock()
	s := newSched(t, service.Config{Workers: 1, QueueCap: 16})

	waitJob(t, s, submit(t, s, "fig7", 71).ID)
	if hit := submit(t, s, "fig7", 71); !hit.Cached {
		t.Fatalf("resubmission = %+v, want a cache hit", hit)
	}
	waitJob(t, s, submit(t, s, "test-fail", 72).ID)
	holder := submit(t, s, "test-block", 73)
	<-started
	cancelled := submit(t, s, "fig7", 74)
	if !s.Cancel(cancelled.ID) {
		t.Fatal("cancel returned false")
	}
	close(release)
	waitJob(t, s, holder.ID)
	if js := waitJob(t, s, cancelled.ID); js.State != service.StateFailed {
		t.Fatalf("cancelled job = %s, want failed", js.State)
	}

	want := service.JobCounts{Queued: 0, Running: 0, Done: 3, Failed: 2, Total: 5}
	if got := s.Status().Jobs; got != want {
		t.Errorf("Status().Jobs = %+v, want %+v", got, want)
	}
}
