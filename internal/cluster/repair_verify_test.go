package cluster_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/store"
)

// TestReadRepairVerifiesPeerEntry stands a node next to a peer that answers
// result reads with entries it should not trust — one whose tables were
// altered after checksumming, one filed under another key — and one it
// should. Only the verified entry may be served and stored.
func TestReadRepairVerifiesPeerEntry(t *testing.T) {
	good := &store.Entry{
		Key:         store.ResultKey("cluster-fast", experiments.OptionsKey{Seed: 1}, testFingerprint),
		Experiment:  "cluster-fast",
		Fingerprint: testFingerprint,
		Tables:      "== T ==\na  1\n",
		CreatedAt:   time.Unix(0, 0).UTC(),
	}
	scratch, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := scratch.Put(good); err != nil { // stamps the checksum
		t.Fatal(err)
	}
	tampered := *good
	tampered.Key = store.ResultKey("cluster-fast", experiments.OptionsKey{Seed: 2}, testFingerprint)
	tampered.Tables = "== T ==\na  2\n" // checksum no longer matches
	misfiled := store.ResultKey("cluster-fast", experiments.OptionsKey{Seed: 3}, testFingerprint)
	served := map[string]*store.Entry{good.Key: good, tampered.Key: &tampered, misfiled: good}

	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		e, ok := served[r.URL.Path[len("/v1/results/"):]]
		if r.Method != http.MethodGet || !ok {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(e)
	}))
	t.Cleanup(peer.Close)

	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := service.New(service.Config{Store: st, Fingerprint: testFingerprint, NodeName: "n0"})
	if err != nil {
		t.Fatal(err)
	}
	swap := &swapHandler{}
	self := httptest.NewServer(swap)
	t.Cleanup(self.Close)
	node, err := cluster.New(cluster.Config{Self: self.URL, Peers: []string{peer.URL}, Replicas: 2,
		VNodes: 16, RingSeed: 1, Store: st, Sched: sched, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	swap.set(node.Handler())
	t.Cleanup(func() {
		node.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		sched.Drain(ctx)
	})

	get := func(key string) int {
		resp, err := http.Get(self.URL + "/v1/results/" + key)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for what, key := range map[string]string{"tampered": tampered.Key, "misfiled": misfiled} {
		if code := get(key); code != http.StatusNotFound {
			t.Errorf("%s peer entry: GET = HTTP %d, want 404", what, code)
		}
		if _, ok, _ := st.Get(key); ok {
			t.Errorf("%s peer entry was written to the local store", what)
		}
	}
	if code := get(good.Key); code != http.StatusOK {
		t.Errorf("verified peer entry: GET = HTTP %d, want 200", code)
	}
	if e, ok, _ := st.Get(good.Key); !ok || e.Checksum != good.Checksum {
		t.Errorf("verified peer entry not repaired locally (found %v)", ok)
	}
	if n := node.Status().ReadRepairs; n != 1 {
		t.Errorf("read_repairs = %d, want 1", n)
	}
}
