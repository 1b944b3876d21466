package cluster_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/store"
)

// The cluster tests run a real multi-node cluster in-process: each node is
// a full store + scheduler + cluster.Node stack behind an httptest server,
// and requests travel over actual HTTP between them. Two registered test
// experiments drive the interesting schedules: cluster-fast computes a
// deterministic table immediately (and counts its computes, so the tests
// can prove cluster-wide single-flight), cluster-block parks inside the
// driver until released (so concurrent duplicate submissions provably
// overlap).
var (
	fastComputes atomic.Int64

	clusterBlockMu sync.Mutex
	clusterRelease chan struct{}
	clusterStarted chan struct{}
)

func init() {
	experiments.Register("cluster-fast", "computes instantly, counting computes (test)",
		func(o experiments.Options) (*experiments.Result, error) {
			fastComputes.Add(1)
			tb := report.NewTable("cluster-fast", "seed", "runs")
			tb.AddRow(fmt.Sprint(o.Seed), fmt.Sprint(o.Runs))
			return &experiments.Result{ID: "cluster-fast", Title: "cluster test", Tables: []*report.Table{tb}}, nil
		})
	experiments.Register("cluster-block", "blocks until released, counting computes (test)",
		func(o experiments.Options) (*experiments.Result, error) {
			fastComputes.Add(1)
			clusterBlockMu.Lock()
			started, release := clusterStarted, clusterRelease
			clusterBlockMu.Unlock()
			if started != nil {
				started <- struct{}{}
			}
			if release != nil {
				ctx := o.Context
				if ctx == nil {
					ctx = context.Background()
				}
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			tb := report.NewTable("cluster-block", "seed")
			tb.AddRow(fmt.Sprint(o.Seed))
			return &experiments.Result{ID: "cluster-block", Title: "cluster test", Tables: []*report.Table{tb}}, nil
		})
}

// armBlock re-arms cluster-block and returns its start-signal and release
// channels.
func armBlock() (chan struct{}, chan struct{}) {
	clusterBlockMu.Lock()
	defer clusterBlockMu.Unlock()
	clusterStarted = make(chan struct{}, 16)
	clusterRelease = make(chan struct{})
	return clusterStarted, clusterRelease
}

// swapHandler lets the httptest server start (fixing the node's URL) before
// the node that serves it exists.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "node not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

const testFingerprint = "cluster-test-fp"

// testNode is one in-process cluster member.
type testNode struct {
	name   string
	srv    *httptest.Server
	store  *store.Store
	sched  *service.Scheduler
	node   *cluster.Node
	client *service.Client
}

// newCluster brings up n nodes whose rings all agree, with replication
// factor replicas and an optional shared fault injector. Background health
// checking is disabled; tests drive CheckPeers when they need probes.
func newCluster(t *testing.T, n, replicas int, inj *faults.Injector) []*testNode {
	t.Helper()
	return newClusterHTTP(t, n, replicas, inj, nil)
}

// newClusterHTTP is newCluster with httpc as every node's base client for
// peer requests (nil: http.DefaultClient).
func newClusterHTTP(t *testing.T, n, replicas int, inj *faults.Injector, httpc *http.Client) []*testNode {
	t.Helper()
	return newKeyedCluster(t, n, replicas, inj, httpc, nil)
}

// newKeyedCluster is newClusterHTTP with tenants configured on every node's
// scheduler (nil: anonymous).
func newKeyedCluster(t *testing.T, n, replicas int, inj *faults.Injector, httpc *http.Client, tenants []service.TenantConfig) []*testNode {
	t.Helper()
	nodes := make([]*testNode, n)
	swaps := make([]*swapHandler, n)
	urls := make([]string, n)
	for i := range nodes {
		swaps[i] = &swapHandler{}
		srv := httptest.NewServer(swaps[i])
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
		nodes[i] = &testNode{name: fmt.Sprintf("n%d", i), srv: srv}
	}
	for i, tn := range nodes {
		st, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		tn.store = st
		// The scheduler's StateHook reaches the cluster node through an
		// atomic pointer: the scheduler must exist before the node (the node
		// wraps its handler) but the hook only fires once jobs run.
		var nodePtr atomic.Pointer[cluster.Node]
		sched, err := service.New(service.Config{
			Store:       st,
			Workers:     2,
			Fingerprint: testFingerprint,
			NodeName:    tn.name,
			Tenants:     tenants,
			StateHook: func(js service.JobStatus) {
				if nd := nodePtr.Load(); nd != nil {
					nd.JobStateHook(js)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		tn.sched = sched
		peers := make([]string, 0, n-1)
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		nd, err := cluster.New(cluster.Config{
			Self:           tn.srv.URL,
			Peers:          peers,
			Replicas:       replicas,
			VNodes:         16,
			RingSeed:       1,
			Store:          st,
			Sched:          sched,
			HTTP:           httpc,
			Faults:         inj,
			HealthInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		tn.node = nd
		nodePtr.Store(nd)
		swaps[i].set(nd.Handler())
		tn.client = &service.Client{BaseURL: tn.srv.URL}
		t.Cleanup(func() {
			nd.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			sched.Drain(ctx)
		})
	}
	return nodes
}

// ownerOf returns the index of the node owning req's result key, and the
// key itself.
func ownerOf(t *testing.T, nodes []*testNode, req service.SubmitRequest) (int, string) {
	t.Helper()
	key := store.ResultKey(req.Experiment, req.Key(), testFingerprint)
	owner := nodes[0].node.Ring().Owner(key)
	for i, tn := range nodes {
		if tn.srv.URL == owner {
			return i, key
		}
	}
	t.Fatalf("owner %s not among nodes", owner)
	return -1, ""
}

// waitDone polls the job to completion through the given node (exercising
// routed polling when the job lives elsewhere).
func waitDone(t *testing.T, tn *testNode, id string) service.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	js, err := tn.client.Wait(ctx, id, 10*time.Millisecond, nil)
	if err != nil {
		t.Fatalf("waiting for %s via %s: %v", id, tn.name, err)
	}
	return js
}

// TestClusterForwardingAndCrossNodeHit is the core routing path: a submit
// through a non-owner lands on the owner, polls through the submitting
// node reach it there, and a later identical submit through a third node
// hits the owner's cache.
func TestClusterForwardingAndCrossNodeHit(t *testing.T) {
	nodes := newCluster(t, 3, 1, nil)
	req := service.SubmitRequest{Experiment: "cluster-fast", Seed: 101, Runs: 1, Quick: true}
	oi, key := ownerOf(t, nodes, req)
	front := nodes[(oi+1)%3]
	third := nodes[(oi+2)%3]

	before := fastComputes.Load()
	ctx := context.Background()
	js, err := front.client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	js = waitDone(t, front, js.ID)
	if js.State != service.StateDone {
		t.Fatalf("job state %s, error %q", js.State, js.Error)
	}
	if js.Node != nodes[oi].name {
		t.Errorf("job ran on %q, want owner %q", js.Node, nodes[oi].name)
	}
	if !strings.Contains(js.ID, nodes[oi].name) {
		t.Errorf("job ID %q not namespaced by owning node %q", js.ID, nodes[oi].name)
	}
	if js.ResultKey != key {
		t.Errorf("result key %s, want %s", store.ShortKey(js.ResultKey), store.ShortKey(key))
	}

	// Identical submit through the third node: forwarded to the same owner,
	// served from its cache without recomputing.
	js2, err := third.client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	js2 = waitDone(t, third, js2.ID)
	if js2.State != service.StateDone {
		t.Fatalf("second job state %s, error %q", js2.State, js2.Error)
	}
	if !js2.Cached {
		t.Error("identical submit through another node missed the owner's cache")
	}
	if got := fastComputes.Load() - before; got != 1 {
		t.Errorf("cluster computed %d times, want 1", got)
	}

	if st := front.node.Status(); st.Forwarded == 0 {
		t.Error("front node reports zero forwarded requests")
	}
	if st := nodes[oi].node.Status(); st.Local == 0 {
		t.Error("owner reports zero local requests")
	}
	// The owner's store has the entry; the front node's does not (R=1).
	if _, ok, _ := nodes[oi].store.Get(key); !ok {
		t.Error("owner store missing computed entry")
	}
	if _, ok, _ := front.store.Get(key); ok {
		t.Error("front node store has entry despite R=1")
	}
}

// TestClusterSingleFlight: concurrent identical submissions entering the
// cluster through every node converge on the owner and share ONE
// computation.
func TestClusterSingleFlight(t *testing.T) {
	nodes := newCluster(t, 3, 1, nil)
	req := service.SubmitRequest{Experiment: "cluster-block", Seed: 202, Runs: 1, Quick: true}
	started, release := armBlock()

	before := fastComputes.Load()
	ctx := context.Background()
	ids := make([]string, len(nodes))
	var wg sync.WaitGroup
	errs := make([]error, len(nodes))
	for i, tn := range nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			js, err := tn.client.Submit(ctx, req)
			if err != nil {
				errs[i] = err
				return
			}
			ids[i] = js.ID
		}()
	}
	// One compute starts; release it once all submissions are in.
	<-started
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit via %s: %v", nodes[i].name, err)
		}
	}
	close(release)

	for i, tn := range nodes {
		js := waitDone(t, tn, ids[i])
		if js.State != service.StateDone {
			t.Fatalf("job %s via %s: state %s, error %q", ids[i], tn.name, js.State, js.Error)
		}
	}
	if got := fastComputes.Load() - before; got != 1 {
		t.Errorf("3 concurrent identical submissions computed %d times, want 1 (cluster-wide single-flight)", got)
	}
	select {
	case <-started:
		t.Error("a second computation started")
	default:
	}
}

// TestClusterReplicationAndReadRepair: at R=2 a fresh computation is pushed
// to the successor replica, and a non-replica node's result read repairs
// its own missing copy from the owners.
func TestClusterReplicationAndReadRepair(t *testing.T) {
	nodes := newCluster(t, 3, 2, nil)
	req := service.SubmitRequest{Experiment: "cluster-fast", Seed: 303, Runs: 2, Quick: true}
	_, key := ownerOf(t, nodes, req)
	owners := nodes[0].node.Ring().Owners(key, 2)
	byURL := map[string]*testNode{}
	for _, tn := range nodes {
		byURL[tn.srv.URL] = tn
	}
	primary, replica := byURL[owners[0]], byURL[owners[1]]
	var outsider *testNode
	for _, tn := range nodes {
		if tn != primary && tn != replica {
			outsider = tn
		}
	}

	ctx := context.Background()
	js, err := primary.client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if js = waitDone(t, primary, js.ID); js.State != service.StateDone {
		t.Fatalf("job state %s, error %q", js.State, js.Error)
	}

	// Replication is asynchronous (fired from the done-state hook); wait for
	// the replica's store to receive the entry.
	deadline := time.Now().Add(10 * time.Second)
	for {
		// The push writes the replica's store before the primary counts it,
		// so wait on both: entry present AND counter visible.
		_, ok, _ := replica.store.Get(key)
		if ok && primary.node.Status().ReplicatedOut > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("entry never replicated to %s (present=%v, replicated_out=%d)",
				replica.name, ok, primary.node.Status().ReplicatedOut)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := replica.node.Status(); st.ReplicatedIn == 0 {
		t.Error("replica reports zero replicated_in")
	}
	if _, ok, _ := outsider.store.Get(key); ok {
		t.Fatalf("non-replica %s received the entry", outsider.name)
	}

	// A result read through the non-replica misses locally, fetches from an
	// owner, and repairs the local copy.
	e, err := outsider.client.Result(ctx, key)
	if err != nil {
		t.Fatalf("result read via non-replica: %v", err)
	}
	if e.Key != key || e.Tables == "" {
		t.Errorf("repaired entry malformed: key %s, %d table bytes", store.ShortKey(e.Key), len(e.Tables))
	}
	if _, ok, _ := outsider.store.Get(key); !ok {
		t.Error("read-repair did not write the local copy")
	}
	if st := outsider.node.Status(); st.ReadRepairs == 0 {
		t.Error("non-replica reports zero read_repairs")
	}

	// The replicated and repaired copies carry the owner's exact bytes.
	pe, _, _ := primary.store.Get(key)
	re, _, _ := replica.store.Get(key)
	oe, _, _ := outsider.store.Get(key)
	if pe == nil || re == nil || oe == nil {
		t.Fatal("entry missing from a store that should hold it")
	}
	if re.Tables != pe.Tables || oe.Tables != pe.Tables {
		t.Error("replicated/repaired tables differ from the owner's")
	}
	if re.Checksum != pe.Checksum || oe.Checksum != pe.Checksum {
		t.Error("replicated/repaired checksums differ from the owner's")
	}
}

// TestClusterFailover: when the owner dies, a submit through another node
// fails over to a local computation that is byte-identical to what the
// owner produced while alive.
func TestClusterFailover(t *testing.T) {
	nodes := newCluster(t, 3, 1, nil)
	req := service.SubmitRequest{Experiment: "cluster-fast", Seed: 404, Runs: 3, Quick: true}
	oi, key := ownerOf(t, nodes, req)
	owner := nodes[oi]
	front := nodes[(oi+1)%3]

	// Healthy pass: the owner computes and caches the result.
	ctx := context.Background()
	js, err := front.client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if js = waitDone(t, front, js.ID); js.State != service.StateDone {
		t.Fatalf("healthy job state %s, error %q", js.State, js.Error)
	}
	healthy, ok, _ := owner.store.Get(key)
	if !ok {
		t.Fatal("owner store missing entry after healthy pass")
	}

	// Kill the owner. The front node's next forward fails at the transport,
	// marks the peer down, and falls back to computing locally.
	owner.srv.Close()
	js2, err := front.client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if js2 = waitDone(t, front, js2.ID); js2.State != service.StateDone {
		t.Fatalf("failover job state %s, error %q", js2.State, js2.Error)
	}
	if js2.Node != front.name {
		t.Errorf("failover job ran on %q, want local %q", js2.Node, front.name)
	}
	st := front.node.Status()
	if st.ForwardFailures == 0 {
		t.Error("front node reports zero forward_failures after owner death")
	}
	if st.FallbackLocal == 0 {
		t.Error("front node reports zero fallback_local after owner death")
	}
	for _, p := range st.Peers {
		if p.URL == owner.srv.URL && p.Alive {
			t.Error("dead owner still marked alive after failed forward")
		}
	}

	// The fallback computation is byte-identical to the owner's.
	local, ok, _ := front.store.Get(key)
	if !ok {
		t.Fatal("front store missing entry after local fallback")
	}
	if local.Tables != healthy.Tables {
		t.Errorf("fallback tables differ from owner's:\nowner:\n%s\nfallback:\n%s", healthy.Tables, local.Tables)
	}

	// A third identical submit now hits the front node's local cache: the
	// ring still names the dead owner, but the live path serves it.
	js3, err := front.client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if js3 = waitDone(t, front, js3.ID); !js3.Cached {
		t.Error("post-failover resubmit missed the fallback cache")
	}
}

// TestClusterReplicateEndpointRejectsBadEntries: the replication endpoint
// refuses key mismatches and checksum failures, so a confused peer cannot
// poison a store.
func TestClusterReplicateEndpointRejectsBadEntries(t *testing.T) {
	nodes := newCluster(t, 2, 2, nil)
	tn := nodes[0]
	key := store.ResultKey("cluster-fast", service.SubmitRequest{Experiment: "cluster-fast", Seed: 1, Runs: 1}.Key(), testFingerprint)

	put := func(urlKey string, e map[string]any) int {
		t.Helper()
		body, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPut, tn.srv.URL+"/v1/results/"+urlKey, strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	otherKey := store.ResultKey("cluster-fast", service.SubmitRequest{Experiment: "cluster-fast", Seed: 2, Runs: 1}.Key(), testFingerprint)
	if code := put(key, map[string]any{"key": otherKey, "experiment": "cluster-fast", "fingerprint": testFingerprint, "tables": "x", "options": map[string]any{}, "created_at": "2026-01-01T00:00:00Z", "checksum": "junk"}); code != http.StatusBadRequest {
		t.Errorf("key-mismatch PUT returned %d, want 400", code)
	}
	if code := put(key, map[string]any{"key": key, "experiment": "cluster-fast", "fingerprint": testFingerprint, "tables": "x", "options": map[string]any{}, "created_at": "2026-01-01T00:00:00Z", "checksum": "0000000000000000000000000000000000000000000000000000000000000000"}); code != http.StatusBadRequest {
		t.Errorf("bad-checksum PUT returned %d, want 400", code)
	}
	if code := put("not-a-key", map[string]any{"key": key}); code != http.StatusBadRequest {
		t.Errorf("malformed-key PUT returned %d, want 400", code)
	}
	if _, ok, _ := tn.store.Get(key); ok {
		t.Error("rejected replication wrote to the store anyway")
	}
}
