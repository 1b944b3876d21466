package cluster_test

// Pins the serving tier's self-metrics, byte for byte: one goroutine drives
// a fixed sequence through a two-node in-process cluster (cache hits, a
// cold job, a retried job, a quota rejection, an identical pair, a
// quarantined store read and one forwarded submit), then compares both
// nodes' whole /metricsz bodies and the JSON of the scheduler, store and
// cluster counters against literals. Only wall-clock values are normalised:
// job-latency bucket and _sum lines (checked through _count) and the
// store's resident byte count (checked against Store.Stats).

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/service"
	"repro/internal/store"
)

// pinNode is one member of the pinned cluster.
type pinNode struct {
	srv   *httptest.Server
	store *store.Store
	sched *service.Scheduler
	node  *cluster.Node
}

// newPinPair starts two nodes. Node 0 has one worker, one retry, keyed
// tenants (alpha may hold one job) and inj on its scheduler and store; node
// 1 is a plain anonymous member. Replication and health probes are off, so
// only the test's own requests move a counter.
func newPinPair(t *testing.T, inj *faults.Injector) [2]*pinNode {
	t.Helper()
	var nodes [2]*pinNode
	var swaps [2]*swapHandler
	for i := range nodes {
		swaps[i] = &swapHandler{}
		srv := httptest.NewServer(swaps[i])
		t.Cleanup(srv.Close)
		nodes[i] = &pinNode{srv: srv}
	}
	for i, pn := range nodes {
		scfg := service.Config{Workers: 1, Fingerprint: testFingerprint, NodeName: fmt.Sprintf("p%d", i)}
		var stInj *faults.Injector
		if i == 0 {
			stInj = inj
			scfg.Faults = inj
			scfg.JobRetries = 1
			scfg.Tenants = []service.TenantConfig{
				{Name: "alpha", Key: "key-alpha", MaxActive: 1},
				{Name: "beta", Key: "key-beta"},
			}
		}
		st, err := store.OpenConfig(store.Config{Dir: t.TempDir(), Faults: stInj})
		if err != nil {
			t.Fatal(err)
		}
		scfg.Store = st
		sched, err := service.New(scfg)
		if err != nil {
			t.Fatal(err)
		}
		nd, err := cluster.New(cluster.Config{
			Self:           pn.srv.URL,
			Peers:          []string{nodes[1-i].srv.URL},
			Replicas:       1,
			VNodes:         16,
			RingSeed:       1,
			Store:          st,
			Sched:          sched,
			HealthInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		pn.store, pn.sched, pn.node = st, sched, nd
		swaps[i].set(nd.Handler())
		t.Cleanup(func() {
			nd.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			sched.Drain(ctx)
		})
	}
	return nodes
}

// pinSeed returns the first seed not in used whose key for experiment the
// node at index owner owns, and marks it used. Choosing seeds by owner keeps
// the sequence the same whatever ports the servers got.
func pinSeed(t *testing.T, nodes [2]*pinNode, owner int, experiment string, used map[int64]bool) (int64, string) {
	t.Helper()
	for seed := int64(1); seed < 1000; seed++ {
		req := service.SubmitRequest{Experiment: experiment, Seed: seed, Runs: 1, Quick: true}
		key := store.ResultKey(experiment, req.Key(), testFingerprint)
		if !used[seed] && nodes[0].node.Ring().Owner(key) == nodes[owner].srv.URL {
			used[seed] = true
			return seed, key
		}
	}
	t.Fatal("no seed owned by the node")
	return 0, ""
}

// pinSubmit POSTs one submission to node 0 under an API key and returns
// the HTTP status and the decoded job status.
func pinSubmit(t *testing.T, base, apiKey, experiment string, seed int64) (int, service.JobStatus) {
	t.Helper()
	body := `{"experiment":"` + experiment + `","seed":` + strconv.FormatInt(seed, 10) + `,"runs":1,"quick":true}`
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(service.APIKeyHeader, apiKey)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var js service.JobStatus
	json.NewDecoder(resp.Body).Decode(&js)
	return resp.StatusCode, js
}

// pinWait polls a scheduler directly (no HTTP, so no counter moves) until
// the job ends, and fails unless it ended done.
func pinWait(t *testing.T, s *service.Scheduler, id string) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		js, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s not retained", id)
		}
		if js.State == service.StateDone {
			return js
		}
		if js.State == service.StateFailed {
			t.Fatalf("job %s failed: %s", id, js.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return service.JobStatus{}
}

// pinRun submits a never-seen cluster-block seed to base as tenant beta,
// releases it once it runs and waits on s, the scheduler that admitted it,
// for it to finish. Held until its submit has answered, the job cannot end
// before its queued event is published, so the event count is fixed.
func pinRun(t *testing.T, s *service.Scheduler, base string, seed int64) service.JobStatus {
	t.Helper()
	started, release := armBlock()
	code, js := pinSubmit(t, base, "key-beta", "cluster-block", seed)
	if code != http.StatusAccepted {
		t.Fatalf("seed %d: HTTP %d", seed, code)
	}
	<-started
	close(release)
	return pinWait(t, s, js.ID)
}

var (
	latencyWallRE = regexp.MustCompile(`(?m)^qsm_service_job_latency_seconds_(bucket|sum)\b.*\n`)
	memBytesRE    = regexp.MustCompile(`(?m)^(qsm_store_mem_bytes(?:_max)?) (\d+)$`)
)

// pinScrape fetches a node's /metricsz and normalises its wall-clock lines:
// latency buckets and sum go, and the resident byte count must equal the
// store's own figure before it is replaced by MEM.
func pinScrape(t *testing.T, pn *pinNode) string {
	t.Helper()
	resp, err := http.Get(pn.srv.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := latencyWallRE.ReplaceAllString(string(data), "")
	mem := strconv.FormatInt(pn.store.Stats().MemBytes, 10)
	return memBytesRE.ReplaceAllStringFunc(body, func(line string) string {
		m := memBytesRE.FindStringSubmatch(line)
		if m[2] != mem {
			t.Errorf("%s = %s, store holds %s bytes", m[1], m[2], mem)
		}
		return m[1] + " MEM"
	})
}

// pinCounters is the JSON the test pins per node: the scheduler counters,
// the store stats (resident bytes normalised) and the cluster counters.
func pinCounters(t *testing.T, pn *pinNode) string {
	t.Helper()
	st := pn.store.Stats()
	st.MemBytes = 0
	// The cluster section without its membership, whose URLs vary by run.
	raw, err := json.Marshal(pn.node.Status())
	if err != nil {
		t.Fatal(err)
	}
	var cs map[string]any
	json.Unmarshal(raw, &cs)
	for _, k := range []string{"self", "members", "replicas", "vnodes", "ring_seed", "ring_shares", "peers"} {
		delete(cs, k)
	}
	data, err := json.Marshal(struct {
		Scheduler service.SchedulerCounters `json:"scheduler"`
		Store     store.Stats               `json:"store"`
		Cluster   map[string]any            `json:"cluster"`
	}{pn.sched.Status().Scheduler, st, cs})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestPinServingMetricsExposition(t *testing.T) {
	// The first memory-missing store read on node 0 errors, and the first
	// compute there panics (and is retried); nothing else fires.
	inj := faults.New(faults.Config{Seed: 1, Rules: map[faults.Class]faults.Rule{
		faults.StoreRead:   {Every: 1, Max: 1},
		faults.WorkerPanic: {Every: 1, Max: 1},
	}})
	nodes := newPinPair(t, inj)
	a := nodes[0]
	base := a.srv.URL
	used := map[int64]bool{}

	// A job pushed to an idle worker races its pop for the queue depth
	// recorded. So each node's high-water mark comes from jobs queued
	// behind a held one, and each node's last queue operation is a pop:
	// queue_depth and its _max are then fixed.

	// A retried job: its admission read errors (a miss), its first
	// attempt panics, its second computes.
	seed, _ := pinSeed(t, nodes, 0, "cluster-block", used)
	if js := pinRun(t, a.sched, base, seed); js.Attempt != 2 {
		t.Fatalf("retried job took %d attempts, want 2", js.Attempt)
	}

	// A cold job, then two hits on it.
	seed, _ = pinSeed(t, nodes, 0, "cluster-block", used)
	pinRun(t, a.sched, base, seed)
	for i := 0; i < 2; i++ {
		if code, js := pinSubmit(t, base, "key-alpha", "cluster-block", seed); code != http.StatusOK || !js.Cached {
			t.Fatalf("hit %d: HTTP %d, cached %v", i, code, js.Cached)
		}
	}

	// A checksum-failing entry on disk: the admission read quarantines it
	// and the job recomputes.
	seed, key := pinSeed(t, nodes, 0, "cluster-block", used)
	if err := os.WriteFile(a.store.Path(key), []byte(`{"key":"`+key+`","checksum":"00"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	pinRun(t, a.sched, base, seed)

	// alpha's one slot held by a blocked job: its next submit is rejected,
	// and two identical beta submits queue behind it: the first computes,
	// and the second, held in the queue meanwhile, is served its result.
	started, release := armBlock()
	seed, _ = pinSeed(t, nodes, 0, "cluster-block", used)
	code, blocked := pinSubmit(t, base, "key-alpha", "cluster-block", seed)
	if code != http.StatusAccepted {
		t.Fatalf("blocking job: HTTP %d", code)
	}
	<-started
	seed, _ = pinSeed(t, nodes, 0, "cluster-fast", used)
	if code, _ = pinSubmit(t, base, "key-alpha", "cluster-fast", seed); code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: HTTP %d, want 429", code)
	}
	seed, _ = pinSeed(t, nodes, 0, "cluster-fast", used)
	var pair [2]service.JobStatus
	for i := range pair {
		if code, pair[i] = pinSubmit(t, base, "key-beta", "cluster-fast", seed); code != http.StatusAccepted {
			t.Fatalf("pair member %d: HTTP %d", i, code)
		}
	}
	close(release)
	pinWait(t, a.sched, blocked.ID)
	pinWait(t, a.sched, pair[0].ID)
	if js := pinWait(t, a.sched, pair[1].ID); !js.Cached || js.Attempt != 1 {
		t.Fatalf("second pair member: cached %v on attempt %d, want served from the first's result on attempt 1", js.Cached, js.Attempt)
	}

	// One submit owned by node 1, forwarded there and queued behind a job
	// given to node 1's scheduler directly.
	started, release = armBlock()
	seed, _ = pinSeed(t, nodes, 1, "cluster-block", used)
	held, err := nodes[1].sched.Submit(service.Request{Experiment: "cluster-block",
		Options: service.SubmitRequest{Seed: seed, Runs: 1, Quick: true}.Key()})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	seed, _ = pinSeed(t, nodes, 1, "cluster-fast", used)
	code, fwd := pinSubmit(t, base, "key-beta", "cluster-fast", seed)
	if code != http.StatusAccepted {
		t.Fatalf("forwarded job: HTTP %d", code)
	}
	close(release)
	pinWait(t, nodes[1].sched, held.ID)
	pinWait(t, nodes[1].sched, fwd.ID)

	// A job is done before its last event is published; draining waits
	// for the workers, so every count below is final.
	for _, pn := range nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := pn.sched.Drain(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
	}

	for i, want := range []string{pinnedMetricsz0, pinnedMetricsz1} {
		if got := pinScrape(t, nodes[i]); got != want {
			t.Errorf("node %d /metricsz:\n%s\nwant:\n%s", i, got, want)
		}
	}
	for i, want := range []string{pinnedCounters0, pinnedCounters1} {
		if got := pinCounters(t, nodes[i]); got != want {
			t.Errorf("node %d counters:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

const pinnedMetricsz0 = `# TYPE qsm_service_cache_hits_total counter
qsm_service_cache_hits_total 3
# TYPE qsm_service_cache_misses_total counter
qsm_service_cache_misses_total 5
# TYPE qsm_service_jobs_failed_total counter
qsm_service_jobs_failed_total 0
# TYPE qsm_service_jobs_rejected_total counter
qsm_service_jobs_rejected_total 1
# TYPE qsm_service_jobs_retried_total counter
qsm_service_jobs_retried_total 1
# TYPE qsm_service_jobs_submitted_total counter
qsm_service_jobs_submitted_total 9
# TYPE qsm_service_inflight_jobs gauge
qsm_service_inflight_jobs 0
# TYPE qsm_service_inflight_jobs_max gauge
qsm_service_inflight_jobs_max 1
# TYPE qsm_service_queue_depth gauge
qsm_service_queue_depth 0
# TYPE qsm_service_queue_depth_max gauge
qsm_service_queue_depth_max 2
# TYPE qsm_service_job_latency_seconds histogram
qsm_service_job_latency_seconds_count 6
# TYPE qsm_store_checksum_failures_total counter
qsm_store_checksum_failures_total 1
# TYPE qsm_store_entries_quarantined_total counter
qsm_store_entries_quarantined_total 1
# TYPE qsm_store_read_errors_total counter
qsm_store_read_errors_total 1
# TYPE qsm_store_reads_degraded_total counter
qsm_store_reads_degraded_total 0
# TYPE qsm_store_writes_degraded_total counter
qsm_store_writes_degraded_total 0
# TYPE qsm_store_mem_bytes gauge
qsm_store_mem_bytes MEM
# TYPE qsm_store_mem_bytes_max gauge
qsm_store_mem_bytes_max MEM
# TYPE qsm_stream_events_dropped_total counter
qsm_stream_events_dropped_total 0
# TYPE qsm_stream_events_published_total counter
qsm_stream_events_published_total 19
# TYPE qsm_stream_subscriptions_opened_total counter
qsm_stream_subscriptions_opened_total 0
# TYPE qsm_stream_subscribers gauge
qsm_stream_subscribers 0
# TYPE qsm_stream_subscribers_max gauge
qsm_stream_subscribers_max 0
# TYPE qsm_tenant_jobs_rejected_total counter
qsm_tenant_jobs_rejected_total{tenant="alpha"} 1
qsm_tenant_jobs_rejected_total{tenant="beta"} 0
# TYPE qsm_tenant_jobs_submitted_total counter
qsm_tenant_jobs_submitted_total{tenant="alpha"} 2
qsm_tenant_jobs_submitted_total{tenant="beta"} 5
# TYPE qsm_tenant_active_jobs gauge
qsm_tenant_active_jobs{tenant="alpha"} 0
qsm_tenant_active_jobs{tenant="beta"} 0
# TYPE qsm_tenant_active_jobs_max gauge
qsm_tenant_active_jobs_max{tenant="alpha"} 0
qsm_tenant_active_jobs_max{tenant="beta"} 0
# TYPE qsm_faults_injected_total counter
qsm_faults_injected_total{class="corrupt_entry"} 0
qsm_faults_injected_total{class="http_drop"} 0
qsm_faults_injected_total{class="http_error"} 0
qsm_faults_injected_total{class="peer_down"} 0
qsm_faults_injected_total{class="peer_slow"} 0
qsm_faults_injected_total{class="slow_job"} 0
qsm_faults_injected_total{class="store_read"} 1
qsm_faults_injected_total{class="store_write"} 0
qsm_faults_injected_total{class="stream_drop"} 0
qsm_faults_injected_total{class="stream_stall"} 0
qsm_faults_injected_total{class="worker_panic"} 1
# TYPE qsm_cluster_fallback_local_total counter
qsm_cluster_fallback_local_total 0
# TYPE qsm_cluster_forward_failures_total counter
qsm_cluster_forward_failures_total 0
# TYPE qsm_cluster_read_repairs_total counter
qsm_cluster_read_repairs_total 0
# TYPE qsm_cluster_replicate_failures_total counter
qsm_cluster_replicate_failures_total 0
# TYPE qsm_cluster_replicated_in_total counter
qsm_cluster_replicated_in_total 0
# TYPE qsm_cluster_replicated_out_total counter
qsm_cluster_replicated_out_total 0
# TYPE qsm_cluster_requests_forwarded_total counter
qsm_cluster_requests_forwarded_total 1
# TYPE qsm_cluster_requests_local_total counter
qsm_cluster_requests_local_total 9
`

const pinnedMetricsz1 = `# TYPE qsm_service_cache_hits_total counter
qsm_service_cache_hits_total 0
# TYPE qsm_service_cache_misses_total counter
qsm_service_cache_misses_total 2
# TYPE qsm_service_jobs_failed_total counter
qsm_service_jobs_failed_total 0
# TYPE qsm_service_jobs_rejected_total counter
qsm_service_jobs_rejected_total 0
# TYPE qsm_service_jobs_retried_total counter
qsm_service_jobs_retried_total 0
# TYPE qsm_service_jobs_submitted_total counter
qsm_service_jobs_submitted_total 2
# TYPE qsm_service_inflight_jobs gauge
qsm_service_inflight_jobs 0
# TYPE qsm_service_inflight_jobs_max gauge
qsm_service_inflight_jobs_max 1
# TYPE qsm_service_queue_depth gauge
qsm_service_queue_depth 0
# TYPE qsm_service_queue_depth_max gauge
qsm_service_queue_depth_max 1
# TYPE qsm_service_job_latency_seconds histogram
qsm_service_job_latency_seconds_count 2
# TYPE qsm_store_checksum_failures_total counter
qsm_store_checksum_failures_total 0
# TYPE qsm_store_entries_quarantined_total counter
qsm_store_entries_quarantined_total 0
# TYPE qsm_store_read_errors_total counter
qsm_store_read_errors_total 0
# TYPE qsm_store_reads_degraded_total counter
qsm_store_reads_degraded_total 0
# TYPE qsm_store_writes_degraded_total counter
qsm_store_writes_degraded_total 0
# TYPE qsm_store_mem_bytes gauge
qsm_store_mem_bytes MEM
# TYPE qsm_store_mem_bytes_max gauge
qsm_store_mem_bytes_max MEM
# TYPE qsm_stream_events_dropped_total counter
qsm_stream_events_dropped_total 0
# TYPE qsm_stream_events_published_total counter
qsm_stream_events_published_total 6
# TYPE qsm_stream_subscriptions_opened_total counter
qsm_stream_subscriptions_opened_total 0
# TYPE qsm_stream_subscribers gauge
qsm_stream_subscribers 0
# TYPE qsm_stream_subscribers_max gauge
qsm_stream_subscribers_max 0
# TYPE qsm_cluster_fallback_local_total counter
qsm_cluster_fallback_local_total 0
# TYPE qsm_cluster_forward_failures_total counter
qsm_cluster_forward_failures_total 0
# TYPE qsm_cluster_read_repairs_total counter
qsm_cluster_read_repairs_total 0
# TYPE qsm_cluster_replicate_failures_total counter
qsm_cluster_replicate_failures_total 0
# TYPE qsm_cluster_replicated_in_total counter
qsm_cluster_replicated_in_total 0
# TYPE qsm_cluster_replicated_out_total counter
qsm_cluster_replicated_out_total 0
# TYPE qsm_cluster_requests_forwarded_total counter
qsm_cluster_requests_forwarded_total 0
# TYPE qsm_cluster_requests_local_total counter
qsm_cluster_requests_local_total 1
`

const pinnedCounters0 = `{"scheduler":{"submitted":9,"rejected":1,"failed":0,"retried":1,"cache_hits":3,"cache_misses":5,"inflight":0},"store":{"mem_entries":5,"mem_bytes":0,"read_errors":1,"entries_quarantined":1,"checksum_failures":1,"writes_degraded":0,"reads_degraded":0},"cluster":{"fallback_local":0,"forward_failures":0,"read_repairs":0,"replicate_failures":0,"replicated_in":0,"replicated_out":0,"requests_forwarded":1,"requests_local":9}}`

const pinnedCounters1 = `{"scheduler":{"submitted":2,"rejected":0,"failed":0,"retried":0,"cache_hits":0,"cache_misses":2,"inflight":0},"store":{"mem_entries":2,"mem_bytes":0,"read_errors":0,"entries_quarantined":0,"checksum_failures":0,"writes_degraded":0,"reads_degraded":0},"cluster":{"fallback_local":0,"forward_failures":0,"read_repairs":0,"replicate_failures":0,"replicated_in":0,"replicated_out":0,"requests_forwarded":0,"requests_local":1}}`
