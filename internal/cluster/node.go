package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// Config parameterises a cluster Node.
type Config struct {
	// Self is this node's advertised base URL; it must appear nowhere in
	// Peers and is what peers' rings know this node as. Required.
	Self string
	// Peers lists the other members' base URLs. The ring is built over
	// Peers + Self; every node must be configured with the same total
	// member set (order-insensitive) or placements disagree.
	Peers []string
	// Replicas is the total number of nodes holding each key (owner
	// included); <= 1 disables replication. Capped at the member count.
	Replicas int
	// VNodes is the ring's per-member virtual-node count; <= 0 means
	// DefaultVNodes. Must match across the cluster.
	VNodes int
	// RingSeed perturbs ring placement; must match across the cluster.
	RingSeed int64
	// Store is the node's local result cache (the same one its scheduler
	// uses). Required.
	Store *store.Store
	// Sched is the node's local scheduler. Required.
	Sched *service.Scheduler
	// HTTP is the base client for peer requests; nil means
	// http.DefaultClient. Tests pass the httptest server client.
	HTTP *http.Client
	// Faults optionally injects peer_down/peer_slow into every peer
	// request; nil injects nothing.
	Faults *faults.Injector
	// Log receives cluster-layer lines (forward decisions, failovers,
	// replication and repair outcomes); nil logs nothing.
	Log *obs.Logger
	// Tracer records "cluster"-layer wall spans for forwarded requests and
	// replication pushes, merged into job traces by trace ID. Nil traces
	// nothing.
	Tracer *obs.WallTracer
	// HealthInterval is the background peer-probe period; 0 means
	// DefaultHealthInterval, < 0 disables the background checker (tests
	// drive CheckPeers directly).
	HealthInterval time.Duration
}

// Node is one cluster member's routing layer: it wraps the local
// scheduler's HTTP API with ring-directed forwarding, replication, and
// read-repair. Create it with New, serve Handler, and Close it on
// shutdown.
type Node struct {
	cfg   Config
	ring  *Ring
	peers map[string]*peer // keyed by base URL; excludes self
	local http.Handler

	stop chan struct{}
	wg   sync.WaitGroup

	failover failoverTable

	// met counts routing and replication events; WriteMetricsText and
	// Status read it at scrape time.
	met struct {
		forwarded      atomic.Uint64 // requests proxied to an owner
		local          atomic.Uint64 // owned requests served locally
		fallbackLocal  atomic.Uint64 // unowned submits computed locally (owners dead)
		forwardFailed  atomic.Uint64 // proxy attempts that failed over
		replicatedOut  atomic.Uint64 // entries pushed to successors
		replicatedIn   atomic.Uint64 // entries accepted from an owner
		replicateFails atomic.Uint64 // pushes that failed after retries
		readRepairs    atomic.Uint64 // misses repaired from a peer copy
	}
}

// New builds the node, its ring, and its peer clients, and starts the
// background health checker (unless disabled). The local handler is taken
// from cfg.Sched, which must have a node name: job IDs are routed by it.
func New(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, errors.New("cluster: Config.Self is required")
	}
	if cfg.Store == nil || cfg.Sched == nil {
		return nil, errors.New("cluster: Config.Store and Config.Sched are required")
	}
	if cfg.Sched.NodeName() == "" {
		return nil, errors.New("cluster: the scheduler needs a node name (service.Config.NodeName) to route job IDs")
	}
	ring, err := NewRing(cfg.RingSeed, cfg.VNodes, append([]string{cfg.Self}, cfg.Peers...))
	if err != nil {
		return nil, err
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > len(ring.Members()) {
		cfg.Replicas = len(ring.Members())
	}
	n := &Node{
		cfg:   cfg,
		ring:  ring,
		peers: make(map[string]*peer, len(cfg.Peers)),
		local: cfg.Sched.Handler(),
		stop:  make(chan struct{}),
	}
	for _, u := range cfg.Peers {
		if u == cfg.Self {
			return nil, fmt.Errorf("cluster: self %q listed in peers", u)
		}
		httpc := peerHTTPClient(cfg.HTTP, cfg.Faults, u, cfg.Log)
		n.peers[u] = newPeer(u, cfg.Self, httpc, cfg.Tracer, cfg.Log)
	}
	if cfg.HealthInterval >= 0 {
		interval := cfg.HealthInterval
		if interval == 0 {
			interval = DefaultHealthInterval
		}
		n.wg.Add(1)
		go n.healthLoop(interval)
	}
	return n, nil
}

// Close stops the health checker and waits for in-flight replication
// pushes to finish. It does not drain the scheduler; that stays the
// caller's job.
func (n *Node) Close() {
	close(n.stop)
	n.wg.Wait()
}

// Ring returns the node's placement ring.
func (n *Node) Ring() *Ring { return n.ring }

// healthLoop probes every peer each interval until Close.
func (n *Node) healthLoop(interval time.Duration) {
	defer n.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.CheckPeers(context.Background())
		}
	}
}

// CheckPeers probes every peer's /healthz once (see checkPeer).
func (n *Node) CheckPeers(ctx context.Context) {
	for _, u := range n.peerURLs() {
		n.checkPeer(ctx, n.peers[u])
	}
}

// checkPeer probes p's /healthz once, updating its liveness and node name,
// and logs fingerprint skew (a cluster whose nodes run different code
// computes different cache keys and must be flagged, not silently split)
// and a name that cannot route job IDs: empty, or this node's or another
// peer's too.
func (n *Node) checkPeer(ctx context.Context, p *peer) {
	wasAlive := p.Alive()
	if err := p.check(ctx, 5*time.Second); err != nil {
		if wasAlive {
			n.cfg.Log.Warn("peer went down", "peer", p.url, "error", err)
		}
		return
	}
	if !wasAlive {
		n.cfg.Log.Info("peer recovered", "peer", p.url)
	}
	if fp := p.status().Fingerprint; fp != "" && fp != n.cfg.Sched.Fingerprint() {
		n.cfg.Log.Warn("peer fingerprint skew: ring placements will disagree",
			"peer", p.url, "peer_fingerprint", fp, "local_fingerprint", n.cfg.Sched.Fingerprint())
	}
	if name, _ := p.nodeName(); name == "" || name == n.cfg.Sched.NodeName() || n.peerNamed(name) != p {
		n.cfg.Log.Warn("peer node name is empty or not unique: its job IDs will not be routed",
			"peer", p.url, "peer_name", name, "local_name", n.cfg.Sched.NodeName())
	}
}

// peerURLs returns the peer set in sorted order, for deterministic probe
// order.
func (n *Node) peerURLs() []string {
	urls := make([]string, 0, len(n.peers))
	for u := range n.peers {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	return urls
}

// Handler returns the node's HTTP API: the local scheduler's surface with
// submits, job polls, and result reads routed through the ring, plus the
// replication endpoint peers push entries to.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", n.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", n.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", n.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", n.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", n.handleJob)
	mux.HandleFunc("GET /v1/results/{key}", n.handleResult)
	mux.HandleFunc("PUT /v1/results/{key}", n.handleReplicate)
	mux.HandleFunc("GET /metricsz", n.handleMetricsz)
	mux.Handle("/", n.local)
	return mux
}

func clusterWriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func clusterWriteError(w http.ResponseWriter, code int, err error) {
	clusterWriteJSON(w, code, map[string]string{"error": err.Error()})
}

// serveLocal replays the (possibly already-consumed) request body and hands
// the request to the local scheduler handler.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request, body []byte) {
	if body != nil {
		r = r.Clone(r.Context())
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
	}
	n.local.ServeHTTP(w, r)
}

// forward proxies the request verbatim to peer p (adding the forwarded
// marker and keeping the inbound trace header and credentials), relaying
// the peer's status and body on success and returning the relayed body so
// the caller can inspect it (e.g. to read a returned job ID). It
// returns ok=false — after marking the peer down — on a transport-level
// failure, letting the caller fail over; a response from the peer,
// whatever its status, is relayed as-is because the peer is alive and its
// answer (202, 404, 429, ...) is the answer.
func (n *Node) forward(w http.ResponseWriter, r *http.Request, p *peer, body []byte) ([]byte, bool) {
	tc := obs.TraceContextFrom(r.Context())
	sp := tc.Start("cluster", "forward", "forward "+r.Method+" "+r.URL.Path,
		obs.WArg{Key: "peer", Val: p.url})
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.url+r.URL.RequestURI(), rd)
	if err != nil {
		sp.Annotate("outcome", "error")
		sp.End()
		return nil, false
	}
	copyHeaders(req, r, "Content-Type", obs.TraceHeader)
	req.Header.Set(ForwardedHeader, n.cfg.Self)
	resp, err := p.httpc().Do(req)
	if err != nil {
		p.markDown(err)
		n.met.forwardFailed.Add(1)
		n.cfg.Log.Warn("forward failed, peer marked down", "peer", p.url,
			"method", r.Method, "path", r.URL.Path, "error", err)
		sp.Annotate("outcome", "failover")
		sp.Annotate("error", err.Error())
		sp.End()
		return nil, false
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		p.markDown(err)
		n.met.forwardFailed.Add(1)
		sp.Annotate("outcome", "failover")
		sp.Annotate("error", err.Error())
		sp.End()
		return nil, false
	}
	n.met.forwarded.Add(1)
	sp.Annotate("outcome", "relayed")
	sp.Annotate("status", strconv.Itoa(resp.StatusCode))
	sp.End()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(data)
	return data, true
}

// credentialHeaders carry a keyed tenant's API key. A forwarded request
// keeps them, and the node that answers it checks the key itself.
var credentialHeaders = []string{service.APIKeyHeader, "Authorization"}

// copyHeaders sets on out the named headers and the credential headers
// that in carries.
func copyHeaders(out, in *http.Request, names ...string) {
	for _, h := range append(names, credentialHeaders...) {
		if v := in.Header.Get(h); v != "" {
			out.Header.Set(h, v)
		}
	}
}

// httpc returns the peer's fault-wrapped HTTP client.
func (p *peer) httpc() *http.Client {
	if p.client.HTTP != nil {
		return p.client.HTTP
	}
	return http.DefaultClient
}

// maxBodyBytes caps a submit body, as the local scheduler's handlers do.
const maxBodyBytes = 1 << 20

// maxEntryBytes caps a replicated entry's body. The largest wire entry any
// driver produces is fig7's, 389 383 B (qsmbench -metrics -cache, full
// sweep, at -runs 1 and 10 alike); the cap leaves it 2.7 times that.
const maxEntryBytes = 1 << 20

// writeBodyError answers a request whose body could not be read or decoded:
// 413 when it ran past its http.MaxBytesReader cap, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	clusterWriteError(w, code, err)
}

// handleSubmit routes one submission: the key's primary owner serves it
// locally (its queue runs identical submissions one at a time, so the
// cluster computes each key once);
// any other node proxies to the live owners in replica order and falls
// back to computing locally — deterministically byte-identical — only when
// every remote owner is unreachable.
func (n *Node) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeBodyError(w, err)
		return
	}
	var req service.SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		// Let the local handler produce its canonical 400.
		n.serveLocal(w, r, body)
		return
	}
	key := store.ResultKey(req.Experiment, req.Key(), n.cfg.Sched.Fingerprint())
	owners := n.ring.Owners(key, n.cfg.Replicas)
	if r.Header.Get(ForwardedHeader) != "" || owners[0] == n.cfg.Self {
		n.met.local.Add(1)
		n.serveLocal(w, r, body)
		return
	}
	for _, o := range owners {
		if o == n.cfg.Self {
			continue
		}
		p := n.peers[o]
		if p == nil || !p.Alive() {
			continue
		}
		if data, ok := n.forward(w, r, p, body); ok {
			var js service.JobStatus
			if json.Unmarshal(data, &js) == nil && js.ID != "" {
				replay := &service.Request{
					Experiment: req.Experiment,
					Options:    req.Key(),
					Tenant:     js.Tenant, // the owner's: in keyed mode the key's, not the body's
					Priority:   req.Priority,
					Deadline:   time.Duration(req.DeadlineMS) * time.Millisecond,
				}
				n.failover.update(js.ID, func(e *failoverEntry) { e.req = replay })
			}
			return
		}
	}
	// Every remote owner is down (or filtered): serve locally. If self is
	// a replica this is normal degraded operation; if not, it is a full
	// fallback — either way the deterministic simulator returns the same
	// bytes the owner would have.
	selfOwns := false
	for _, o := range owners {
		selfOwns = selfOwns || o == n.cfg.Self
	}
	if !selfOwns {
		n.met.fallbackLocal.Add(1)
		n.cfg.Log.Warn("all owners unreachable, computing locally",
			"key", store.ShortKey(key), "owners", fmt.Sprint(owners))
	} else {
		n.met.local.Add(1)
	}
	n.serveLocal(w, r, body)
}

// jobNode returns the node name in a cluster job ID, job-<node>-<seq>:
// everything between "job-" and the last "-", since names may hold '-'
// and ':' themselves. ok is false for an ID of any other shape.
func jobNode(id string) (name string, ok bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	i := strings.LastIndexByte(rest, '-')
	if !ok || i < 1 {
		return "", false
	}
	_, err := strconv.ParseUint(rest[i+1:], 10, 64)
	return rest[:i], err == nil
}

// peerNamed returns the one peer that reported name, or nil when none or
// several did.
func (n *Node) peerNamed(name string) *peer {
	var found *peer
	for _, p := range n.peers {
		if pn, _ := p.nodeName(); pn == name {
			if found != nil {
				return nil
			}
			found = p
		}
	}
	return found
}

// jobPeer returns the live peer the request's job ID names, or nil when
// the request is this node's to answer: it was forwarded here, or its ID
// does not parse or names this node, a dead peer or no peer. A name no
// peer has reported first probes the live peers whose names are still
// unknown (polls can arrive before the first health check has run).
func (n *Node) jobPeer(r *http.Request) *peer {
	name, ok := jobNode(r.PathValue("id"))
	if !ok || name == n.cfg.Sched.NodeName() || r.Header.Get(ForwardedHeader) != "" {
		return nil
	}
	p := n.peerNamed(name)
	if p == nil {
		for _, u := range n.peerURLs() {
			if _, named := n.peers[u].nodeName(); !named && n.peers[u].Alive() {
				n.checkPeer(r.Context(), n.peers[u])
			}
		}
		p = n.peerNamed(name)
	}
	if p == nil || !p.Alive() {
		return nil
	}
	return p
}

// handleResult serves result reads with read-repair: a local hit is
// served; a local miss asks the key's other owners (skipping dead peers)
// and, on a peer hit, repairs the local copy before serving — so one
// node's lost or quarantined entry heals from its replicas instead of
// recomputing. Forwarded reads never chain another hop.
func (n *Node) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !store.ValidKey(key) {
		n.serveLocal(w, r, nil) // canonical 400
		return
	}
	if wire, ok, _ := n.cfg.Store.GetBytes(r.Context(), key); ok {
		n.met.local.Add(1)
		service.WriteResult(w, wire)
		return
	}
	if r.Header.Get(ForwardedHeader) != "" {
		n.serveLocal(w, r, nil) // canonical 404, no forwarding chains
		return
	}
	for _, o := range n.ring.Owners(key, n.cfg.Replicas) {
		if o == n.cfg.Self {
			continue
		}
		p := n.peers[o]
		if p == nil || !p.Alive() {
			continue
		}
		e, err := p.client.Result(r.Context(), key)
		if err != nil {
			continue
		}
		if e.Key != key || !e.ChecksumOK() {
			n.cfg.Log.Warn("peer served a result that fails verification", "key", store.ShortKey(key), "peer", o)
			continue
		}
		n.met.forwarded.Add(1)
		n.met.readRepairs.Add(1)
		wire, perr := n.cfg.Store.PutCtx(r.Context(), e)
		if perr != nil {
			n.cfg.Log.Warn("read-repair write failed", "key", store.ShortKey(key), "error", perr)
		} else {
			n.cfg.Log.Info("read-repaired entry from peer", "key", store.ShortKey(key), "peer", o)
		}
		service.WriteResult(w, wire)
		return
	}
	n.serveLocal(w, r, nil) // canonical 404
}

// handleReplicate accepts an entry pushed by the key's owner. The entry
// must address the URL's key and carry a valid checksum; anything else is
// rejected, so a confused or malicious peer cannot poison the store. A body
// over maxEntryBytes gets a 413.
func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !store.ValidKey(key) {
		clusterWriteError(w, http.StatusBadRequest, errors.New("cluster: malformed result key"))
		return
	}
	// A peer's entry is held to a stricter contract than store.DecodeEntry's:
	// an unknown field is refused, not ignored.
	var e store.Entry
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxEntryBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		writeBodyError(w, err)
		return
	}
	if e.Key != key {
		clusterWriteError(w, http.StatusBadRequest, fmt.Errorf("cluster: entry key %s does not match URL key %s",
			store.ShortKey(e.Key), store.ShortKey(key)))
		return
	}
	if e.Checksum == "" || !e.ChecksumOK() {
		clusterWriteError(w, http.StatusBadRequest, errors.New("cluster: replicated entry failed checksum"))
		return
	}
	if _, err := n.cfg.Store.PutCtx(r.Context(), &e); err != nil {
		clusterWriteError(w, http.StatusInternalServerError, err)
		return
	}
	n.met.replicatedIn.Add(1)
	n.cfg.Log.Info("accepted replicated entry", "key", store.ShortKey(key), "from", r.Header.Get(ForwardedHeader))
	clusterWriteJSON(w, http.StatusOK, map[string]string{"key": key, "status": "replicated"})
}

// handleMetricsz appends the cluster counters to the scheduler's exposition
// (disjoint subsystems, so the concatenation stays a valid exposition).
func (n *Node) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	n.cfg.Sched.WriteMetricsText(w)
	n.WriteMetricsText(w)
}

// WriteMetricsText dumps the cluster counters in Prometheus text format.
func (n *Node) WriteMetricsText(w io.Writer) error {
	rec := obs.New(obs.Config{Metrics: true})
	for name, c := range map[string]*atomic.Uint64{
		"requests_forwarded": &n.met.forwarded,
		"requests_local":     &n.met.local,
		"fallback_local":     &n.met.fallbackLocal,
		"forward_failures":   &n.met.forwardFailed,
		"replicated_out":     &n.met.replicatedOut,
		"replicated_in":      &n.met.replicatedIn,
		"replicate_failures": &n.met.replicateFails,
		"read_repairs":       &n.met.readRepairs,
	} {
		rec.Counter("cluster", name, "").Add(c.Load())
	}
	return rec.WritePrometheusText(w)
}

// JobStateHook is the service.Config.StateHook half of replication: wire it
// into the scheduler and every freshly computed (non-cached) done job has
// its entry pushed asynchronously to the key's successor replicas. Cached
// completions skip the push — their entry already replicated when first
// computed, and read-repair heals any copy that has since been lost.
func (n *Node) JobStateHook(js service.JobStatus) {
	if js.State != service.StateDone || js.Cached || js.ResultKey == "" || n.cfg.Replicas < 2 {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.replicate(js.ResultKey, js.TraceID)
	}()
}

// replicate pushes the local entry for key to every other owner in the
// key's replica set. Push errors are counted and logged, never fatal:
// read-repair covers any replica the push missed.
func (n *Node) replicate(key, traceID string) {
	ctx := context.Background()
	if obs.ValidTraceID(traceID) {
		ctx = obs.WithTraceContext(ctx, &obs.TraceContext{
			ID: traceID, Tracer: n.cfg.Tracer, Log: n.cfg.Log.With("trace_id", traceID)})
	}
	wire, ok, err := n.cfg.Store.GetBytes(ctx, key)
	if !ok || err != nil {
		n.cfg.Log.Warn("replication skipped: entry unavailable locally",
			"key", store.ShortKey(key), "error", fmt.Sprint(err))
		return
	}
	sp := n.cfg.Tracer.Start(traceID, "cluster", "replicate", "replicate "+store.ShortKey(key))
	pushed := 0
	for _, o := range n.ring.Owners(key, n.cfg.Replicas) {
		if o == n.cfg.Self {
			continue
		}
		p := n.peers[o]
		if p == nil || !p.Alive() {
			continue
		}
		if err := p.client.PutResult(ctx, key, wire); err != nil {
			n.met.replicateFails.Add(1)
			n.cfg.Log.Warn("replication push failed", "key", store.ShortKey(key), "peer", o, "error", err)
			continue
		}
		pushed++
		n.met.replicatedOut.Add(1)
	}
	sp.Annotate("pushed", strconv.Itoa(pushed))
	sp.End()
}

// Status is the cluster section of /statusz: membership, liveness, ring
// ownership shares, and the forwarding/replication counters.
type Status struct {
	Self     string             `json:"self"`
	Members  []string           `json:"members"`
	Replicas int                `json:"replicas"`
	VNodes   int                `json:"vnodes"`
	RingSeed int64              `json:"ring_seed"`
	Shares   map[string]float64 `json:"ring_shares"`
	Peers    []PeerStatus       `json:"peers"`

	Forwarded         uint64 `json:"requests_forwarded"`
	Local             uint64 `json:"requests_local"`
	FallbackLocal     uint64 `json:"fallback_local"`
	ForwardFailures   uint64 `json:"forward_failures"`
	ReplicatedOut     uint64 `json:"replicated_out"`
	ReplicatedIn      uint64 `json:"replicated_in"`
	ReplicateFailures uint64 `json:"replicate_failures"`
	ReadRepairs       uint64 `json:"read_repairs"`
}

// Status assembles the node's cluster snapshot.
func (n *Node) Status() Status {
	st := Status{
		Self:     n.cfg.Self,
		Members:  n.ring.Members(),
		Replicas: n.cfg.Replicas,
		VNodes:   n.ring.VNodes(),
		RingSeed: n.ring.Seed(),
		Shares:   n.ring.Shares(),

		Forwarded:         n.met.forwarded.Load(),
		Local:             n.met.local.Load(),
		FallbackLocal:     n.met.fallbackLocal.Load(),
		ForwardFailures:   n.met.forwardFailed.Load(),
		ReplicatedOut:     n.met.replicatedOut.Load(),
		ReplicatedIn:      n.met.replicatedIn.Load(),
		ReplicateFailures: n.met.replicateFails.Load(),
		ReadRepairs:       n.met.readRepairs.Load(),
	}
	for _, u := range n.peerURLs() {
		st.Peers = append(st.Peers, n.peers[u].status())
	}
	return st
}
