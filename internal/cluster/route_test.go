package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// countingTransport counts the requests that pass through it.
type countingTransport struct{ n atomic.Int64 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// TestJobRoutingPeerTraffic counts the peer requests one poll costs. A node
// that has not yet heard its peers' names probes each live peer's /healthz
// once; after that, a poll for a job on a peer is one forward, and a poll
// for an ID that names no node, or does not parse, sends nothing.
func TestJobRoutingPeerTraffic(t *testing.T) {
	ct := &countingTransport{}
	nodes := newClusterHTTP(t, 3, 1, nil, &http.Client{Transport: ct})
	req := service.SubmitRequest{Experiment: "cluster-fast", Seed: 701, Runs: 1, Quick: true}
	oi, _ := ownerOf(t, nodes, req)
	owner, front, third := nodes[oi], nodes[(oi+1)%3], nodes[(oi+2)%3]
	js, err := front.client.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, owner, js.ID)

	noRoles := strings.NewReplacer()
	for _, c := range []struct {
		what string
		via  *testNode
		id   string
		code int
		want int64
	}{
		{"names unknown: two probes, one forward", third, js.ID, http.StatusOK, 3},
		{"names learned: one forward", third, js.ID, http.StatusOK, 1},
		{"the owner's own job", owner, js.ID, http.StatusOK, 0},
		{"an unissued sequence on a live peer", third, "job-" + owner.name + "-999", http.StatusNotFound, 1},
		{"no such node", third, "job-nowhere-1", http.StatusNotFound, 0},
		{"malformed", third, "job-7", http.StatusNotFound, 0},
		{"malformed", third, "bogus", http.StatusNotFound, 0},
	} {
		before := ct.n.Load()
		code, body := askRoute(t, c.via, http.MethodGet, "/v1/jobs/"+c.id, noRoles)
		if got := ct.n.Load() - before; code != c.code || got != c.want {
			t.Errorf("%s: GET %s via %s = %d after %d peer requests, want %d after %d\n%s",
				c.what, c.id, c.via.name, code, got, c.code, c.want, body)
		}
	}
}

// TestFailoverTableBound forwards one submit more than the failover table
// holds. The table keeps the newest FailoverEntries IDs. Once the owner is
// down, a stream for the evicted ID gets the 404 of an ID never forwarded,
// and a stream for the newest fails over to a local recompute.
func TestFailoverTableBound(t *testing.T) {
	nodes := newCluster(t, 2, 1, nil)
	req := service.SubmitRequest{Experiment: "cluster-fast", Seed: 702, Runs: 1, Quick: true}
	oi, _ := ownerOf(t, nodes, req)
	owner, front := nodes[oi], nodes[1-oi]
	ctx := context.Background()
	ids := make([]string, cluster.FailoverEntries+1)
	for i := range ids {
		js, err := front.client.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = js.ID
	}
	if got := front.node.FailoverLen(); got != cluster.FailoverEntries {
		t.Errorf("failover table holds %d IDs after %d forwards, want %d", got, len(ids), cluster.FailoverEntries)
	}
	waitDone(t, owner, ids[len(ids)-1])
	owner.srv.Close()
	front.node.CheckPeers(ctx)

	noRoles := strings.NewReplacer()
	if code, body := askRoute(t, front, http.MethodGet, "/v1/jobs/"+ids[0]+"/events", noRoles); code != http.StatusNotFound || body != noSuchJob {
		t.Errorf("events for the evicted %s = %d %q, want %d %q", ids[0], code, body, http.StatusNotFound, noSuchJob)
	}
	last := ids[len(ids)-1]
	if code, body := askRoute(t, front, http.MethodGet, "/v1/jobs/"+last+"/events", noRoles); code != http.StatusOK || !strings.Contains(body, `"state":"done"`) {
		t.Errorf("events for the retained %s = %d %q, want 200 and a failover ending done", last, code, body)
	}
}

// TestWaitFailsOverDeadOwner: the owner of a forwarded job dies while it
// runs the job. Polling through the node that forwarded the submit fails
// over the way the events stream does: the first GET replays the remembered
// submit locally, and Client.Wait ends on done with the tables of a
// fault-free run. A DELETE asked first gets the 404 and replays nothing.
func TestWaitFailsOverDeadOwner(t *testing.T) {
	started, release := armBlock()
	nodes := newCluster(t, 3, 1, nil)
	req := service.SubmitRequest{Experiment: "cluster-block", Seed: 703, Runs: 1, Quick: true}
	oi, _ := ownerOf(t, nodes, req)
	owner, front := nodes[oi], nodes[(oi+1)%3]
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	js, err := front.client.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	<-started // the owner's worker is inside the experiment
	owner.srv.Close()
	front.node.CheckPeers(ctx)

	if err := front.client.Cancel(ctx, js.ID); err == nil || !strings.Contains(err.Error(), "no such job") {
		t.Errorf("DELETE %s via %s = %v, want the 404 no such job", js.ID, front.name, err)
	}
	if n := len(front.sched.Jobs()); n != 0 {
		t.Errorf("DELETE left %d jobs on %s, want none replayed", n, front.name)
	}

	close(release)
	got, err := front.client.Wait(ctx, js.ID, 5*time.Millisecond, nil)
	if err != nil {
		t.Fatalf("Wait %s via %s after the owner died: %v", js.ID, front.name, err)
	}
	if got.State != service.StateDone || got.Node != front.name {
		t.Fatalf("Wait = %s on %q (%s), want done on %q", got.State, got.Node, got.Error, front.name)
	}
	disarmBlock()
	want, err := experiments.Run(req.Experiment, experiments.Options{Seed: req.Seed, Runs: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	e, err := front.client.Result(ctx, got.ResultKey)
	if err != nil {
		t.Fatal(err)
	}
	if e.Tables != want.String() {
		t.Errorf("failed-over tables differ from a fault-free run\nfailover:\n%s\nlocal:\n%s", e.Tables, want.String())
	}
}

// TestPinMalformedSubmit pins the 400 and the error body a malformed
// submit gets through a cluster node: the local scheduler's answer.
func TestPinMalformedSubmit(t *testing.T) {
	nodes := newCluster(t, 2, 1, nil)
	for _, c := range []struct{ body, err string }{
		{``, `EOF`},
		{`{not json`, `invalid character 'n' looking for beginning of object key string`},
		{`{"experiment":"cluster-fast","bogus":1}`, `json: unknown field \"bogus\"`},
		{`{"experiment":"cluster-fast"`, `unexpected EOF`},
	} {
		rw := httptest.NewRecorder()
		nodes[0].node.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(c.body)))
		want := "{\n  \"error\": \"" + c.err + "\"\n}\n"
		if rw.Code != http.StatusBadRequest || rw.Body.String() != want {
			t.Errorf("POST /v1/jobs %q = %d %q, want 400 %q", c.body, rw.Code, rw.Body.String(), want)
		}
	}
}

// TestSubmitBodyCap: a 64 MB submit body through a cluster node gets a
// 413 after no more than the cap and one read buffer have been read from
// it; the node never holds the whole body.
func TestSubmitBodyCap(t *testing.T) {
	nodes := newCluster(t, 2, 1, nil)
	body := &hugeBody{}
	rw := httptest.NewRecorder()
	nodes[0].node.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/jobs", body))
	if want := "{\n  \"error\": \"http: request body too large\"\n}\n"; rw.Code != http.StatusRequestEntityTooLarge || rw.Body.String() != want {
		t.Errorf("POST /v1/jobs with a 64 MB body = %d %q, want 413 %q", rw.Code, rw.Body.String(), want)
	}
	if body.read > cluster.MaxBodyBytes+4096 {
		t.Errorf("read %d body bytes, want at most the %d-byte cap and one 4 KB buffer", body.read, cluster.MaxBodyBytes)
	}
}

// hugeBody is a 64 MB submit body, made as it is read, that counts the
// bytes read from it: one JSON string far longer than any cap.
type hugeBody struct{ read int }

func (b *hugeBody) Read(p []byte) (int, error) {
	const size = 64 << 20
	if b.read >= size {
		return 0, io.EOF
	}
	n := min(len(p), size-b.read)
	for i := range p[:n] {
		p[i] = 'a'
	}
	if b.read == 0 {
		copy(p[:n], `{"experiment":"`)
	}
	b.read += n
	return n, nil
}

// TestUnroutablePeerNames: a peer whose /healthz reports no name, this
// node's own name, or a name another peer reports too is logged, and no
// job request is routed to it.
func TestUnroutablePeerNames(t *testing.T) {
	var jobRequests atomic.Int64
	var peers []string
	for _, name := range []string{"", "self", "dup", "dup"} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/healthz" {
				json.NewEncoder(w).Encode(service.HealthStatus{Fingerprint: testFingerprint, Node: name, Status: "ok"})
				return
			}
			jobRequests.Add(1)
			http.NotFound(w, r)
		}))
		t.Cleanup(srv.Close)
		peers = append(peers, srv.URL)
	}
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := service.New(service.Config{Store: st, Fingerprint: testFingerprint, NodeName: "self"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Drain(context.Background()) })
	var log bytes.Buffer // written only on this goroutine: CheckPeers and ServeHTTP run here
	node, err := cluster.New(cluster.Config{Self: "http://self.invalid", Peers: peers, Replicas: 1, VNodes: 16,
		RingSeed: 1, Store: st, Sched: sched, Log: obs.NewLogger(&log, slog.LevelInfo), HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	// The first duplicate is checked before the second has a name; the
	// next round of checks finds both.
	node.CheckPeers(context.Background())
	node.CheckPeers(context.Background())
	for _, u := range peers {
		if !strings.Contains(log.String(), "msg=\"peer node name is empty or not unique: its job IDs will not be routed\" peer="+u+" ") {
			t.Errorf("no unroutable-name warning for %s:\n%s", u, log.String())
		}
	}
	for _, id := range []string{"job-dup-1", "job-self-1"} {
		rec := httptest.NewRecorder()
		node.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil))
		if rec.Code != http.StatusNotFound || rec.Body.String() != noSuchJob {
			t.Errorf("GET %s = %d %q, want %d %q", id, rec.Code, rec.Body.String(), http.StatusNotFound, noSuchJob)
		}
	}
	if n := jobRequests.Load(); n != 0 {
		t.Errorf("peers with unroutable names got %d job requests, want 0", n)
	}
}

// TestNewNeedsNodeName: a scheduler without a node name issues job IDs that
// name no node, so a cluster node refuses it.
func TestNewNeedsNodeName(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := service.New(service.Config{Store: st, Fingerprint: testFingerprint})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sched.Drain(context.Background()) })
	if _, err := cluster.New(cluster.Config{Self: "http://self.invalid", Store: st, Sched: sched}); err == nil {
		t.Error("cluster.New accepted a scheduler with no node name")
	}
}
