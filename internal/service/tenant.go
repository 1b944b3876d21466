package service

// Multi-tenant admission: static API-key tenants with per-tenant quotas.
// Tenants are configuration (a -tenants flag spec or a JSON file), not a
// dynamic registry: each carries an API key, a concurrent-job quota
// (queued + running jobs holding admission), and a queue-depth quota. The
// HTTP layer authenticates submissions by key (X-Qsm-Api-Key or a bearer
// token) when any tenant is configured; with none configured the service
// is anonymous and behaves exactly as before — the request body's tenant
// field shapes fair queuing only.
//
// Quota accounting is deliberately simple and local: a job acquires its
// tenant's concurrency slot at admission (cache hits never consume quota —
// they cost nothing) and releases it exactly once when it reaches a
// terminal state, before that state is visible, on whichever path got it
// there: done, failed, cancelled, or drained. Rejections surface as *QuotaError, which the HTTP
// layer maps to 429 with a Retry-After. In a cluster, quotas apply on the
// node that admits the job.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// APIKeyHeader authenticates tenant submissions.
const APIKeyHeader = "X-Qsm-Api-Key"

// TenantConfig declares one API tenant.
type TenantConfig struct {
	// Name identifies the tenant in queuing, metrics, and status.
	Name string `json:"name"`
	// Key is the tenant's API key (X-Qsm-Api-Key or bearer token).
	Key string `json:"key"`
	// MaxActive bounds the tenant's concurrently admitted jobs (queued +
	// running); <= 0 means unlimited.
	MaxActive int `json:"max_active"`
	// MaxQueued bounds the tenant's queued jobs; <= 0 means unlimited.
	MaxQueued int `json:"max_queued"`
}

// QuotaError is the typed per-tenant admission rejection; the HTTP layer
// maps it to 429 with a Retry-After header.
type QuotaError struct {
	Tenant string
	// Kind is "concurrent" (MaxActive) or "queued" (MaxQueued).
	Kind  string
	Limit int
	// RetryAfter is the suggested backoff surfaced in the Retry-After
	// header.
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("service: tenant %q over %s-job quota (limit %d)", e.Tenant, e.Kind, e.Limit)
}

// ErrUnauthorized rejects keyed-mode requests without a known API key.
var ErrUnauthorized = errors.New("service: missing or unknown API key")

// tenantState is one tenant's live accounting.
type tenantState struct {
	cfg       TenantConfig
	active    int // jobs holding a concurrency slot
	submitted uint64
	rejected  uint64
}

// tenantRegistry resolves API keys and enforces quotas. The zero-value
// (nil-map) registry is the anonymous mode: every method passes requests
// through untouched.
type tenantRegistry struct {
	mu     sync.Mutex
	byName map[string]*tenantState
	byKey  map[string]*tenantState
}

func newTenantRegistry(cfgs []TenantConfig) (*tenantRegistry, error) {
	reg := &tenantRegistry{}
	if len(cfgs) == 0 {
		return reg, nil
	}
	reg.byName = map[string]*tenantState{}
	reg.byKey = map[string]*tenantState{}
	for _, c := range cfgs {
		if c.Name == "" {
			return nil, errors.New("service: tenant with empty name")
		}
		if c.Key == "" {
			return nil, fmt.Errorf("service: tenant %q has no API key", c.Name)
		}
		if _, dup := reg.byName[c.Name]; dup {
			return nil, fmt.Errorf("service: duplicate tenant %q", c.Name)
		}
		if _, dup := reg.byKey[c.Key]; dup {
			return nil, fmt.Errorf("service: tenant %q reuses another tenant's key", c.Name)
		}
		t := &tenantState{cfg: c}
		reg.byName[c.Name] = t
		reg.byKey[c.Key] = t
	}
	return reg, nil
}

// enabled reports keyed multi-tenant mode (any tenant configured).
func (reg *tenantRegistry) enabled() bool { return reg != nil && len(reg.byName) > 0 }

// resolveKey maps an API key to its tenant name.
func (reg *tenantRegistry) resolveKey(key string) (string, bool) {
	if !reg.enabled() || key == "" {
		return "", false
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	t, ok := reg.byKey[key]
	if !ok {
		return "", false
	}
	return t.cfg.Name, true
}

// acquire checks and takes one admission slot for the named tenant,
// reporting whether a slot was actually held (unknown and anonymous tenants
// carry no quota). queued is the tenant's current queue depth, checked
// against MaxQueued before the slot is taken.
func (reg *tenantRegistry) acquire(name string, queued int) (bool, error) {
	if !reg.enabled() || name == "" {
		return false, nil
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	t, ok := reg.byName[name]
	if !ok {
		return false, nil
	}
	t.submitted++
	if t.cfg.MaxActive > 0 && t.active >= t.cfg.MaxActive {
		t.rejected++
		return false, &QuotaError{Tenant: name, Kind: "concurrent", Limit: t.cfg.MaxActive, RetryAfter: time.Second}
	}
	if t.cfg.MaxQueued > 0 && queued >= t.cfg.MaxQueued {
		t.rejected++
		return false, &QuotaError{Tenant: name, Kind: "queued", Limit: t.cfg.MaxQueued, RetryAfter: time.Second}
	}
	t.active++
	return true, nil
}

// release returns one admission slot.
func (reg *tenantRegistry) release(name string) {
	if !reg.enabled() {
		return
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if t, ok := reg.byName[name]; ok && t.active > 0 {
		t.active--
	}
}

// TenantStatus is one tenant's row on /statusz and the admin state.
type TenantStatus struct {
	Active    int    `json:"active"`
	MaxActive int    `json:"max_active,omitempty"`
	Queued    int    `json:"queued"`
	MaxQueued int    `json:"max_queued,omitempty"`
	Submitted uint64 `json:"submitted"`
	Rejected  uint64 `json:"rejected"`
}

// status snapshots every configured tenant; queueDepths supplies the
// per-tenant queued counts.
func (reg *tenantRegistry) status(queueDepths map[string]int) map[string]TenantStatus {
	if !reg.enabled() {
		return nil
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	out := make(map[string]TenantStatus, len(reg.byName))
	for name, t := range reg.byName {
		out[name] = TenantStatus{
			Active:    t.active,
			MaxActive: t.cfg.MaxActive,
			Queued:    queueDepths[name],
			MaxQueued: t.cfg.MaxQueued,
			Submitted: t.submitted,
			Rejected:  t.rejected,
		}
	}
	return out
}

// writeMetricsText appends per-tenant self-metrics in Prometheus text
// format (tenant="..." labels on each series).
func (reg *tenantRegistry) writeMetricsText(w io.Writer) error {
	if !reg.enabled() {
		return nil
	}
	rec := obs.New(obs.Config{Metrics: true})
	reg.mu.Lock()
	for name, t := range reg.byName {
		label := "tenant=" + name
		rec.Counter("tenant", "jobs_submitted", label).Add(t.submitted)
		rec.Counter("tenant", "jobs_rejected", label).Add(t.rejected)
		rec.Gauge("tenant", "active_jobs", label).Set(int64(t.active))
	}
	reg.mu.Unlock()
	return rec.WritePrometheusText(w)
}

// authTenant resolves the request's tenant in keyed mode: the API-key
// header or an Authorization bearer token must name a configured tenant.
// Requests already forwarded by a cluster peer are pre-authenticated by the
// entrance node. In anonymous mode it returns "" and the caller keeps the
// request body's tenant field.
func (s *Scheduler) authTenant(r *http.Request) (string, error) {
	if !s.tenants.enabled() {
		return "", nil
	}
	if r.Header.Get(ForwardedHeader) != "" {
		return "", nil
	}
	key := r.Header.Get(APIKeyHeader)
	if key == "" {
		if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
			key = strings.TrimPrefix(auth, "Bearer ")
		}
	}
	name, ok := s.tenants.resolveKey(key)
	if !ok {
		return "", ErrUnauthorized
	}
	return name, nil
}

// ParseTenants parses a compact tenant spec: comma-separated
// "name:key:maxactive:maxqueued" clauses (the two limits optional; 0 or
// absent means unlimited). Example:
//
//	alpha:alpha-key:2:4,beta:beta-key:8:0
func ParseTenants(spec string) ([]TenantConfig, error) {
	var out []TenantConfig
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		parts := strings.Split(clause, ":")
		if len(parts) < 2 || len(parts) > 4 {
			return nil, fmt.Errorf("service: tenant clause %q is not name:key[:maxactive[:maxqueued]]", clause)
		}
		c := TenantConfig{Name: parts[0], Key: parts[1]}
		if len(parts) > 2 && parts[2] != "" {
			n, err := strconv.Atoi(parts[2])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("service: tenant clause %q: bad maxactive", clause)
			}
			c.MaxActive = n
		}
		if len(parts) > 3 && parts[3] != "" {
			n, err := strconv.Atoi(parts[3])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("service: tenant clause %q: bad maxqueued", clause)
			}
			c.MaxQueued = n
		}
		out = append(out, c)
	}
	return out, nil
}

// LoadTenantsFile reads a JSON array of TenantConfig.
func LoadTenantsFile(path string) ([]TenantConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []TenantConfig
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("service: tenants file %s: %w", path, err)
	}
	return out, nil
}
