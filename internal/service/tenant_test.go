package service_test

// Multi-tenant admission tests: keyed-mode authentication, the concurrent
// and queued quota edges (429 + Retry-After), quota release on every
// terminal path (done, cancelled, failed), and the anonymous-mode guarantee
// that a service with no tenants configured behaves exactly as before.

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

// tenantServer brings up a keyed two-tenant server and a client
// authenticating as the first tenant.
func tenantServer(t *testing.T, spec string, cfg service.Config) (*service.Scheduler, *service.Client) {
	t.Helper()
	tens, err := service.ParseTenants(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tenants = tens
	return newServer(t, cfg)
}

// asTenant returns a fresh client for c's server sending the given API
// key. (A field-wise rebuild, not a struct copy — Client embeds a mutex.)
func asTenant(c *service.Client, key string) *service.Client {
	return &service.Client{
		BaseURL: c.BaseURL,
		HTTP:    c.HTTP,
		Headers: map[string]string{service.APIKeyHeader: key},
	}
}

func TestParseTenants(t *testing.T) {
	got, err := service.ParseTenants("alpha:ka:2:4, beta:kb ,gamma:kg:0")
	if err != nil {
		t.Fatal(err)
	}
	want := []service.TenantConfig{
		{Name: "alpha", Key: "ka", MaxActive: 2, MaxQueued: 4},
		{Name: "beta", Key: "kb"},
		{Name: "gamma", Key: "kg"},
	}
	if len(got) != len(want) {
		t.Fatalf("ParseTenants = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tenant %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	for _, bad := range []string{"noname", "x:k:-1", "x:k:a", "x:k:1:b", "a:b:c:d:e"} {
		if _, err := service.ParseTenants(bad); err == nil {
			t.Errorf("ParseTenants(%q) accepted a bad spec", bad)
		}
	}
}

func TestTenantAuthRequired(t *testing.T) {
	_, c := tenantServer(t, "acme:key-acme:4:8", service.Config{})
	ctx := context.Background()
	req := service.SubmitRequest{Experiment: "fig7", Seed: 51, Runs: 1, Quick: true}

	if _, err := c.Submit(ctx, req); err == nil || !strings.Contains(err.Error(), "HTTP 401") {
		t.Errorf("keyless submit in keyed mode: err = %v, want HTTP 401", err)
	}
	if _, err := asTenant(c, "wrong").Submit(ctx, req); err == nil || !strings.Contains(err.Error(), "HTTP 401") {
		t.Errorf("wrong-key submit: err = %v, want HTTP 401", err)
	}
	js, err := asTenant(c, "key-acme").Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if js.Tenant != "acme" {
		t.Errorf("authenticated job tenant = %q, want acme (key overrides body)", js.Tenant)
	}
	// The events and admin endpoints gate on the same auth.
	for _, path := range []string{"/v1/jobs/" + js.ID + "/events", "/v1/admin/state"} {
		resp := rawStream(t, c.BaseURL, path, "", "")
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("keyless GET %s: HTTP %d, want 401", path, resp.StatusCode)
		}
	}
}

// TestTenantBearerToken: the Authorization: Bearer form of the key works
// identically to the header form.
func TestTenantBearerToken(t *testing.T) {
	_, c := tenantServer(t, "acme:key-acme:4:8", service.Config{})
	cc := &service.Client{
		BaseURL: c.BaseURL,
		HTTP:    c.HTTP,
		Headers: map[string]string{"Authorization": "Bearer key-acme"},
	}
	js, err := cc.Submit(context.Background(), service.SubmitRequest{Experiment: "fig7", Seed: 52, Runs: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if js.Tenant != "acme" {
		t.Errorf("bearer-authenticated job tenant = %q, want acme", js.Tenant)
	}
}

// submitRaw posts a submission with an API key and returns the raw
// response, for header-level assertions the typed client hides.
func submitRaw(t *testing.T, base, key, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.APIKeyHeader, key)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestTenantConcurrentQuota: a tenant at its MaxActive limit gets 429 with a
// Retry-After header; a sibling tenant is unaffected; finishing a job frees
// the slot.
func TestTenantConcurrentQuota(t *testing.T) {
	started, release := resetBlock()
	_, c := tenantServer(t, "acme:key-acme:1:8,globex:key-globex:4:8", service.Config{Workers: 2})
	ctx := context.Background()
	acme := asTenant(c, "key-acme")

	if _, err := acme.Submit(ctx, service.SubmitRequest{Experiment: "test-block", Seed: 61, Runs: 1, Quick: true}); err != nil {
		t.Fatal(err)
	}
	<-started

	// At the limit: the raw response must be 429 with a parseable
	// Retry-After.
	resp := submitRaw(t, c.BaseURL, "key-acme",
		`{"experiment":"test-block","seed":62,"runs":1,"quick":true}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: HTTP %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("over-quota response Retry-After = %q, want a positive integer", ra)
	}

	// Another tenant's quota is untouched.
	if _, err := asTenant(c, "key-globex").Submit(ctx, service.SubmitRequest{Experiment: "test-block", Seed: 63, Runs: 1, Quick: true}); err != nil {
		t.Fatalf("sibling tenant blocked by acme's quota: %v", err)
	}
	<-started

	// Releasing the blocked jobs frees the slot: acme can submit again.
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := acme.Submit(ctx, service.SubmitRequest{Experiment: "fig7", Seed: 64, Runs: 1, Quick: true})
		if err == nil {
			break
		}
		if !strings.Contains(err.Error(), "HTTP 429") || time.Now().After(deadline) {
			t.Fatalf("post-release submit: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTenantQuotaReleasedOnCancelAndFailure: cancelling a queued job and
// failing a running one both return their slots, so quota cannot leak on
// the unhappy paths.
func TestTenantQuotaReleasedOnCancelAndFailure(t *testing.T) {
	started, release := resetBlock()
	defer func() { close(release) }()
	s, c := tenantServer(t, "acme:key-acme:2:8", service.Config{Workers: 1})
	ctx := context.Background()
	acme := asTenant(c, "key-acme")
	waitIdle := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			ten := s.Status().Tenants["acme"]
			if ten.Active == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("tenant slots leaked: %+v", ten)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Slot 1: a job that occupies the single worker.
	blocker, err := acme.Submit(ctx, service.SubmitRequest{Experiment: "test-block", Seed: 71, Runs: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// Slot 2: a queued job.
	queued, err := acme.Submit(ctx, service.SubmitRequest{Experiment: "test-block", Seed: 72, Runs: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// Both slots held: the next submit bounces.
	if _, err := acme.Submit(ctx, service.SubmitRequest{Experiment: "fig7", Seed: 73, Runs: 1, Quick: true}); err == nil || !strings.Contains(err.Error(), "HTTP 429") {
		t.Fatalf("at-limit submit: err = %v, want HTTP 429", err)
	}

	// Cancel both: the running blocker unwinds at its cancellation check and
	// the queued job fails as the freed worker dequeues it. Both terminal
	// paths must return their slots.
	if err := acme.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	if err := acme.Cancel(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	if js := waitTerminal(t, acme, blocker.ID); js.State != service.StateFailed {
		t.Fatalf("cancelled running job = %s, want failed", js.State)
	}
	if js := waitTerminal(t, acme, queued.ID); js.State != service.StateFailed {
		t.Fatalf("cancelled queued job = %s, want failed", js.State)
	}
	// Both slots are back by the time the terminal states are visible.
	waitIdle()
	if _, err := acme.Submit(ctx, service.SubmitRequest{Experiment: "fig7", Seed: 74, Runs: 1, Quick: true}); err != nil {
		t.Fatalf("submit after cancel did not reuse the freed slots: %v", err)
	}

	// A failing job frees its slot too.
	fail, err := acme.Submit(ctx, service.SubmitRequest{Experiment: "test-fail", Seed: 75, Runs: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	js := waitTerminal(t, acme, fail.ID)
	if js.State != service.StateFailed {
		t.Fatalf("test-fail job = %s, want failed", js.State)
	}
	// Every admitted job has reached a terminal state: active must be 0.
	waitIdle()
}

// waitTerminal polls a job through the client until it is done or failed.
func waitTerminal(t *testing.T, c *service.Client, id string) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		js, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if js.State == service.StateDone || js.State == service.StateFailed {
			return js
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, js.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTenantQueuedQuota: MaxQueued bounds the tenant's queue depth
// independently of MaxActive.
func TestTenantQueuedQuota(t *testing.T) {
	started, release := resetBlock()
	defer func() { close(release) }()
	_, c := tenantServer(t, "acme:key-acme:0:1", service.Config{Workers: 1})
	ctx := context.Background()
	acme := asTenant(c, "key-acme")

	if _, err := acme.Submit(ctx, service.SubmitRequest{Experiment: "test-block", Seed: 81, Runs: 1, Quick: true}); err != nil {
		t.Fatal(err)
	}
	<-started
	// One queued job fills the depth-1 queue quota.
	if _, err := acme.Submit(ctx, service.SubmitRequest{Experiment: "test-block", Seed: 82, Runs: 1, Quick: true}); err != nil {
		t.Fatal(err)
	}
	_, err := acme.Submit(ctx, service.SubmitRequest{Experiment: "test-block", Seed: 83, Runs: 1, Quick: true})
	if err == nil || !strings.Contains(err.Error(), "HTTP 429") {
		t.Fatalf("over queued-quota submit: err = %v, want HTTP 429", err)
	}
}

// TestTenantCacheHitsBypassQuota: cached results cost nothing and must not
// consume (or be blocked by) quota, even for a tenant at its limit.
func TestTenantCacheHitsBypassQuota(t *testing.T) {
	started, release := resetBlock()
	defer func() { close(release) }()
	_, c := tenantServer(t, "acme:key-acme:1:8", service.Config{Workers: 2})
	ctx := context.Background()
	acme := asTenant(c, "key-acme")

	// Warm the cache below the limit.
	warm, err := acme.Submit(ctx, service.SubmitRequest{Experiment: "fig7", Seed: 84, Runs: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, acme, warm.ID)
	// Fill the single slot.
	if _, err := acme.Submit(ctx, service.SubmitRequest{Experiment: "test-block", Seed: 85, Runs: 1, Quick: true}); err != nil {
		t.Fatal(err)
	}
	<-started
	// The cached resubmission sails through at the limit.
	js, err := acme.Submit(ctx, service.SubmitRequest{Experiment: "fig7", Seed: 84, Runs: 1, Quick: true})
	if err != nil {
		t.Fatalf("cache hit blocked by quota: %v", err)
	}
	if js.State != service.StateDone || !js.Cached {
		t.Errorf("resubmission = %s cached=%v, want immediate cached done", js.State, js.Cached)
	}
}

// TestTenantQuotaFreeWhenDoneVisible: a job returns its tenant slot before
// its terminal state can be observed, so a client at its limit that polls
// "done" and submits at once is admitted. The state hook holds the finished
// job's notification open while the test polls and resubmits.
func TestTenantQuotaFreeWhenDoneVisible(t *testing.T) {
	held, resume := make(chan struct{}), make(chan struct{})
	var hold, unhold sync.Once
	defer unhold.Do(func() { close(resume) })
	hook := func(js service.JobStatus) {
		if js.State == service.StateDone || js.State == service.StateFailed {
			hold.Do(func() { close(held); <-resume })
		}
	}
	_, c := tenantServer(t, "acme:key-acme:1:8", service.Config{Workers: 1, StateHook: hook})
	ctx := context.Background()
	acme := asTenant(c, "key-acme")

	first, err := acme.Submit(ctx, service.SubmitRequest{Experiment: "fig7", Seed: 87, Runs: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	<-held
	js, err := acme.Job(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if js.State != service.StateDone {
		t.Fatalf("first job = %s while its terminal notification is held, want done", js.State)
	}
	if _, err := acme.Submit(ctx, service.SubmitRequest{Experiment: "fig7", Seed: 88, Runs: 1, Quick: true}); err != nil {
		t.Fatalf("submit at the limit right after seeing done: %v", err)
	}
}

// TestAnonymousModeUnchanged: with no tenants configured there is no
// authentication, no quota, and no tenant status — the pre-tenancy surface,
// untouched.
func TestAnonymousModeUnchanged(t *testing.T) {
	s, c := newServer(t, service.Config{})
	ctx := context.Background()
	js, err := c.Submit(ctx, service.SubmitRequest{Experiment: "fig7", Seed: 86, Runs: 1, Quick: true, Tenant: "whoever"})
	if err != nil {
		t.Fatal(err)
	}
	if js.Tenant != "whoever" {
		t.Errorf("anonymous mode dropped the body's tenant field: %q", js.Tenant)
	}
	waitTerminal(t, c, js.ID)
	if ten := s.Status().Tenants; ten != nil {
		t.Errorf("anonymous /statusz grew a tenants section: %+v", ten)
	}
	// Streams and admin state stay open.
	if resp := rawStream(t, c.BaseURL, "/v1/jobs/"+js.ID+"/events", "", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("anonymous events: HTTP %d, want 200", resp.StatusCode)
	}
	if _, err := c.Admin(ctx); err != nil {
		t.Errorf("anonymous admin state: %v", err)
	}
}

// TestTenantRegistryRejectsBadConfig: duplicate names, reused keys, and
// missing fields fail construction rather than admitting ambiguity.
func TestTenantRegistryRejectsBadConfig(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]service.TenantConfig{
		{{Name: "", Key: "k"}},
		{{Name: "a", Key: ""}},
		{{Name: "a", Key: "k1"}, {Name: "a", Key: "k2"}},
		{{Name: "a", Key: "k"}, {Name: "b", Key: "k"}},
	}
	for i, cfgs := range bad {
		s, err := service.New(service.Config{Store: st, Fingerprint: "x", Tenants: cfgs})
		if err == nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			s.Drain(ctx)
			cancel()
			t.Errorf("config %d (%+v) accepted", i, cfgs)
		}
	}
}
