package cluster_test

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/service"
)

// TestKeyedClusterChecksKeyOnEveryNode: in a cluster whose nodes share one
// -tenants spec, the node that does not own a job refuses a keyless
// submit, GET, DELETE, trace and events request with 401, as the owner
// does, and a forwarded marker set by the client itself changes nothing.
// With the key every request goes through as before, and a submit the
// front node forwards is charged to the key's tenant on the owner.
func TestKeyedClusterChecksKeyOnEveryNode(t *testing.T) {
	tenants := []service.TenantConfig{{Name: "acme", Key: "key-acme"}, {Name: "blue", Key: "key-blue"}}
	nodes := newKeyedCluster(t, 2, 1, nil, nil, tenants)
	ctx := context.Background()
	req := service.SubmitRequest{Experiment: "cluster-fast", Seed: 301, Runs: 1, Quick: true, Tenant: "blue"}
	oi, _ := ownerOf(t, nodes, req)
	owner, front := nodes[oi], nodes[1-oi]

	for _, tn := range []*testNode{front, owner} {
		if _, err := tn.client.Submit(ctx, req); err == nil || !strings.Contains(err.Error(), "HTTP 401") {
			t.Errorf("keyless submit via %s: err = %v, want HTTP 401", tn.name, err)
		}
	}
	keyed := &service.Client{BaseURL: front.srv.URL, Headers: map[string]string{service.APIKeyHeader: "key-acme"}}
	js, err := keyed.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if js.Node != owner.name || js.Tenant != "acme" {
		t.Errorf("keyed submit via the front node ran on %q as tenant %q; want the owner %q, tenant acme (the key's, not the body's)",
			js.Node, js.Tenant, owner.name)
	}
	if got := owner.sched.Status().Tenants["acme"].Submitted; got != 1 {
		t.Errorf("owner charged %d submits to acme, want 1", got)
	}
	if js, err = keyed.Wait(ctx, js.ID, 0, nil); err != nil || js.State != service.StateDone {
		t.Fatalf("waiting through the front node: %+v, %v", js, err)
	}

	routes := []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/" + js.ID},
		{http.MethodGet, "/v1/jobs/" + js.ID + "/trace"},
		{http.MethodGet, "/v1/jobs/" + js.ID + "/events"},
		{http.MethodDelete, "/v1/jobs/" + js.ID},
	}
	do := func(base, method, path string, header map[string]string) int {
		t.Helper()
		r, err := http.NewRequest(method, base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range header {
			r.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, tn := range []*testNode{front, owner} {
		for _, rt := range routes {
			if code := do(tn.srv.URL, rt.method, rt.path, nil); code != http.StatusUnauthorized {
				t.Errorf("keyless %s %s via %s: HTTP %d, want 401", rt.method, rt.path, tn.name, code)
			}
			forged := map[string]string{cluster.ForwardedHeader: "http://forged"}
			if code := do(tn.srv.URL, rt.method, rt.path, forged); code != http.StatusUnauthorized {
				t.Errorf("keyless %s %s via %s with a forwarded marker: HTTP %d, want 401", rt.method, rt.path, tn.name, code)
			}
		}
	}
	for _, header := range []map[string]string{{service.APIKeyHeader: "key-acme"}, {"Authorization": "Bearer key-blue"}} {
		for _, rt := range routes {
			if code := do(front.srv.URL, rt.method, rt.path, header); code != http.StatusOK {
				t.Errorf("%s %s via the front node with %v: HTTP %d, want 200", rt.method, rt.path, header, code)
			}
		}
	}
}
