package cluster

// The peer layer: one health-checked client per cluster member. Peers are
// static configuration (-peers); what changes at runtime is reachability.
// Detection is both passive (a failed forward marks the peer down
// immediately, so the very next request fails over without waiting for a
// probe) and active (a background checker probes /healthz and is the only
// path that marks a peer up again, so one good response ends an outage).
// Every peer request runs through a fault-consulting transport: the
// peer_down class fails the request before it is sent and peer_slow stalls
// it, which is how the chaos harness drives dead- and slow-peer behavior
// deterministically.

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/service"
)

// ForwardedHeader marks a request already forwarded once by a cluster node.
// A receiving node serves it locally, whatever the ring says, so forwarding
// can never loop and a replica can serve a submit when the primary routed
// it there. The constant lives in the service package (its keyed-tenant
// auth admits forwarded requests as pre-authenticated); this alias keeps
// the cluster-side name.
const ForwardedHeader = service.ForwardedHeader

// DefaultHealthInterval is the background health-probe period.
const DefaultHealthInterval = 2 * time.Second

// peer is one remote cluster member: its typed client (used for forwarding,
// replication pushes, and health probes — all through the fault transport)
// and its liveness state.
type peer struct {
	url    string
	client *service.Client

	alive    atomic.Bool
	checks   atomic.Uint64 // health probes sent
	failures atomic.Uint64 // probes + forwards that failed

	mu          sync.Mutex
	fingerprint string // last fingerprint seen from /healthz
	name        string // last node name seen from /healthz
	named       bool   // a /healthz answer has set name
	lastErr     string // last failure, for /statusz
}

// newPeer builds the member's client over the node's HTTP transport, with
// the forwarded marker baked into every request and a small retry budget
// (service.Client's capped-exponential backoff) for transient blips. Peers
// start alive; the first failed request or probe marks them down.
func newPeer(url, self string, httpc *http.Client, tracer *obs.WallTracer, log *obs.Logger) *peer {
	p := &peer{
		url: url,
		client: &service.Client{
			BaseURL: url,
			HTTP:    httpc,
			Retry: service.RetryPolicy{
				MaxAttempts: 2,
				BaseBackoff: 10 * time.Millisecond,
				MaxBackoff:  100 * time.Millisecond,
			},
			RequestTimeout: 10 * time.Second,
			Headers:        map[string]string{ForwardedHeader: self},
			Tracer:         tracer,
			Log:            log,
		},
	}
	p.alive.Store(true)
	return p
}

// Alive reports the peer's current liveness estimate.
func (p *peer) Alive() bool { return p.alive.Load() }

// markDown records a failed request against the peer.
func (p *peer) markDown(err error) {
	p.alive.Store(false)
	p.failures.Add(1)
	p.mu.Lock()
	p.lastErr = err.Error()
	p.mu.Unlock()
}

// check probes the peer's /healthz once, flipping liveness on the outcome.
// It returns the probe error, if any.
func (p *peer) check(ctx context.Context, timeout time.Duration) error {
	p.checks.Add(1)
	cctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	h, err := p.client.Health(cctx)
	if err != nil {
		p.markDown(err)
		return err
	}
	p.alive.Store(true)
	p.mu.Lock()
	p.fingerprint = h.Fingerprint
	p.name, p.named = h.Node, true
	p.lastErr = ""
	p.mu.Unlock()
	return nil
}

// nodeName returns the node name the peer last reported; named is false
// until a /healthz answer has been seen.
func (p *peer) nodeName() (name string, named bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.name, p.named
}

// PeerStatus is one peer's row in the cluster's /statusz section.
type PeerStatus struct {
	URL         string `json:"url"`
	Alive       bool   `json:"alive"`
	Checks      uint64 `json:"checks"`
	Failures    uint64 `json:"failures"`
	Fingerprint string `json:"fingerprint,omitempty"`
	LastError   string `json:"last_error,omitempty"`
}

func (p *peer) status() PeerStatus {
	p.mu.Lock()
	fp, lastErr := p.fingerprint, p.lastErr
	p.mu.Unlock()
	return PeerStatus{
		URL:         p.url,
		Alive:       p.alive.Load(),
		Checks:      p.checks.Load(),
		Failures:    p.failures.Load(),
		Fingerprint: fp,
		LastError:   lastErr,
	}
}

// faultTransport consults the injector's peer classes before every peer
// request: peer_down fails the request unsent (the caller sees a transport
// error, exactly as if the peer's machine vanished) and peer_slow stalls it
// by the rule's delay. A nil injector passes requests straight through.
type faultTransport struct {
	base http.RoundTripper
	inj  *faults.Injector
	peer string
	log  *obs.Logger
}

func (t *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := t.inj.Err(faults.PeerDown, "peer "+t.peer); err != nil {
		t.log.Warn("injected peer fault", "fault", faults.PeerDown.String(), "peer", t.peer,
			"method", req.Method, "path", req.URL.Path)
		return nil, err
	}
	if d := t.inj.Delay(faults.PeerSlow); d > 0 {
		t.log.Warn("injected peer fault", "fault", faults.PeerSlow.String(), "peer", t.peer, "delay", d)
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		}
	}
	return t.base.RoundTrip(req)
}

// peerHTTPClient wraps the node's base HTTP client with the fault transport
// for one peer.
func peerHTTPClient(base *http.Client, inj *faults.Injector, peerURL string, log *obs.Logger) *http.Client {
	if base == nil {
		base = http.DefaultClient
	}
	rt := base.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	c := *base // shallow copy: same pooling, new transport chain
	c.Transport = &faultTransport{base: rt, inj: inj, peer: peerURL, log: log}
	return &c
}
