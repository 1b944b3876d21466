package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/store"
)

// encodeEntry is the wire form of a result: what json.Encoder with a
// two-space indent writes for the decoded entry, trailing newline included.
func encodeEntry(t *testing.T, e *store.Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(e); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fetchResult GETs /v1/results/{key} from one node and returns the raw body;
// forwardedFrom, when set, marks the read as a peer's forwarded hop.
func fetchResult(t *testing.T, tn *testNode, key, forwardedFrom string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, tn.srv.URL+"/v1/results/"+key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if forwardedFrom != "" {
		req.Header.Set(cluster.ForwardedHeader, forwardedFrom)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result %s via %s = HTTP %d: %s", store.ShortKey(key), tn.name, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("result Content-Type via %s = %q, want application/json", tn.name, ct)
	}
	return body
}

// realEntry computes exp with metrics on a stand-alone scheduler sharing the
// cluster's fingerprint and returns the decoded entry.
func realEntry(t *testing.T, exp string) *store.Entry {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan service.JobStatus, 1) // one job, one terminal state
	sched, err := service.New(service.Config{Store: st, Fingerprint: testFingerprint, CollectMetrics: true,
		StateHook: func(js service.JobStatus) {
			if js.State == service.StateDone || js.State == service.StateFailed {
				done <- js
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer sched.Drain(ctx)
	req := service.SubmitRequest{Experiment: exp, Seed: 3, Runs: 1, Quick: true}
	if _, err := sched.Submit(service.Request{Experiment: req.Experiment, Options: req.Key()}); err != nil {
		t.Fatal(err)
	}
	var js service.JobStatus
	select {
	case js = <-done:
	case <-ctx.Done():
		t.Fatalf("computing %s: %v", exp, ctx.Err())
	}
	if js.State != service.StateDone {
		t.Fatalf("computing %s: state %s (%s)", exp, js.State, js.Error)
	}
	e, ok, err := st.Get(js.ResultKey)
	if err != nil || !ok {
		t.Fatalf("entry for %s not in the store: %v", exp, err)
	}
	return e
}

// roles splits a 3-node, 2-replica cluster into the key's primary owner, its
// replica and the one node that owns no copy.
func roles(nodes []*testNode, key string) (primary, replica, outsider *testNode) {
	owners := nodes[0].node.Ring().Owners(key, 2)
	for _, tn := range nodes {
		switch tn.srv.URL {
		case owners[0]:
			primary = tn
		case owners[1]:
			replica = tn
		default:
			outsider = tn
		}
	}
	return primary, replica, outsider
}

// TestClusterResultBodyBytes pins the bytes a 3-node cluster serves for a
// small (fig1) and a large (fig7 with metrics) entry held by the key's owner:
// the owner's local hit, a peer's forwarded read at the owner, a non-owner's
// read (fetched from the owner and read-repaired) and the repaired local copy
// must all be the canonical indented encoding of the entry.
func TestClusterResultBodyBytes(t *testing.T) {
	for _, exp := range []string{"fig1", "fig7"} {
		t.Run(exp, func(t *testing.T) {
			e := realEntry(t, exp)
			if len(e.Metrics) == 0 || e.Checksum == "" {
				t.Fatalf("entry incomplete: metrics %d B, checksum %q", len(e.Metrics), e.Checksum)
			}
			want := encodeEntry(t, e)
			nodes := newCluster(t, 3, 2, nil)
			primary, _, outsider := roles(nodes, e.Key)
			seed := *e // Put may stamp the entry; keep the reference untouched
			if err := primary.store.Put(&seed); err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				what string
				via  *testNode
				fwd  string
			}{
				{"owner local hit", primary, ""},
				{"forwarded hit at the owner", primary, outsider.srv.URL},
				{"non-owner read-repair", outsider, ""},
				{"non-owner repaired local hit", outsider, ""},
				{"forwarded hit at the repaired non-owner", outsider, primary.srv.URL},
			} {
				if got := fetchResult(t, c.via, e.Key, c.fwd); !bytes.Equal(got, want) {
					t.Errorf("%s: served %d bytes, want the %d canonical ones", c.what, len(got), len(want))
				}
			}
			if st := outsider.node.Status(); st.ReadRepairs != 1 {
				t.Errorf("read_repairs on the non-owner = %d, want 1", st.ReadRepairs)
			}
		})
	}
}

// TestClusterReplicatedBodyBytes pins the replication push: the copy a
// replica receives from the owner serves the owner's exact bytes.
func TestClusterReplicatedBodyBytes(t *testing.T) {
	nodes := newCluster(t, 3, 2, nil)
	req := service.SubmitRequest{Experiment: "cluster-fast", Seed: 909, Runs: 2, Quick: true}
	_, key := ownerOf(t, nodes, req)
	primary, replica, _ := roles(nodes, key)
	js, err := primary.client.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if js = waitDone(t, primary, js.ID); js.State != service.StateDone {
		t.Fatalf("job state %s, error %q", js.State, js.Error)
	}
	// The push is asynchronous (done-state hook); wait for it to be counted.
	deadline := time.Now().Add(10 * time.Second)
	for replica.node.Status().ReplicatedIn == 0 {
		if time.Now().After(deadline) {
			t.Fatal("entry never replicated")
		}
		time.Sleep(5 * time.Millisecond)
	}
	want := fetchResult(t, primary, key, "")
	var e store.Entry
	if err := json.Unmarshal(want, &e); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, encodeEntry(t, &e)) {
		t.Error("owner's body is not the canonical encoding of its entry")
	}
	// A forwarded read never leaves the node, so this is the replica's own copy.
	if got := fetchResult(t, replica, key, primary.srv.URL); !bytes.Equal(got, want) {
		t.Error("replica's pushed copy serves different bytes from the owner's")
	}
}
