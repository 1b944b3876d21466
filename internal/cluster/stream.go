package cluster

// Streaming across the ring: GET /v1/jobs/{id}/events follows the same
// owner-routing as job polls — a stream for a job this node forwarded is
// proxied (flushing frame by frame) to the owning peer with the inbound
// trace ID attached, so one trace covers the submit, the hop, and the
// stream. The difference from plain forwards is failure handling: a stream
// that breaks mid-flight cannot simply be retried against the same body,
// because the owner may be gone for good. Instead the node falls over to
// local compute — it replays the remembered submit body into its own
// scheduler (deterministically byte-identical results), aliases the remote
// job ID to the local one so later polls and cancels resolve, and keeps
// serving the same response from the local stream. Local event IDs restart
// from zero; service.Client tolerates the restart and watches through to
// the terminal event.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// handleJobEvents routes one job event stream: locally for local (or
// aliased, or already-forwarded) jobs, else proxied to the peer that got
// the submit, with local-compute failover when the owner dies mid-stream.
func (n *Node) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if localID, ok := n.aliasOf(id); ok {
		n.redirectLocal(w, r, id, localID)
		return
	}
	if _, ok := n.cfg.Sched.Job(id); ok || r.Header.Get(ForwardedHeader) != "" {
		n.serveLocal(w, r, nil)
		return
	}
	var p *peer
	if u, ok := n.forwardedTo(id); ok {
		if cand := n.peers[u]; cand != nil && cand.Alive() {
			p = cand
		}
	} else {
		// Unknown job: locate it the way handleJobRouted does — job IDs are
		// per-node, so the stream can be asked for anywhere in the cluster.
		for _, u := range n.peerURLs() {
			cand := n.peers[u]
			if !cand.Alive() {
				continue
			}
			ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
			_, err := cand.client.Job(ctx, id)
			cancel()
			if err == nil {
				n.rememberForward(id, u)
				p = cand
				break
			}
		}
	}
	headerSent := false
	if p != nil {
		var done bool
		done, headerSent = n.forwardStream(w, r, p, id)
		if done {
			return
		}
	}
	n.failoverStream(w, r, id, headerSent)
}

// forwardStream proxies the stream to peer p, flushing after every read so
// events reach the client as they happen. done reports the response is
// complete (peer stream ended, error relayed, or client gone); !done means
// a transport-level break — the peer is marked down and the caller should
// fail over, on the already-started response when headerSent.
func (n *Node) forwardStream(w http.ResponseWriter, r *http.Request, p *peer, id string) (done, headerSent bool) {
	tc := obs.TraceContextFrom(r.Context())
	sp := tc.Start("cluster", "forward", "stream "+r.URL.Path,
		obs.WArg{Key: "peer", Val: p.url})
	defer sp.End()
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, p.url+r.URL.RequestURI(), nil)
	if err != nil {
		sp.Annotate("outcome", "error")
		return false, false
	}
	for _, h := range []string{"Accept", "Last-Event-ID", obs.TraceHeader} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	req.Header.Set(ForwardedHeader, n.cfg.Self)
	resp, err := p.httpc().Do(req)
	if err != nil {
		p.markDown(err)
		n.met.forwardFailed.Add(1)
		n.cfg.Log.Warn("stream forward failed to connect, peer marked down",
			"peer", p.url, "job", id, "error", err)
		sp.Annotate("outcome", "failover")
		return false, false
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		// The peer answered: its error (404, 401, ...) is the answer.
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(data)
		n.met.forwarded.Add(1)
		sp.Annotate("outcome", "relayed")
		return true, true
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(resp.StatusCode)
	n.met.forwarded.Add(1)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	buf := make([]byte, 4096)
	for {
		nr, rerr := resp.Body.Read(buf)
		if nr > 0 {
			if _, werr := w.Write(buf[:nr]); werr != nil {
				sp.Annotate("outcome", "client_gone")
				return true, true
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil {
			if rerr == io.EOF {
				sp.Annotate("outcome", "relayed")
				return true, true
			}
			if r.Context().Err() != nil {
				sp.Annotate("outcome", "client_gone")
				return true, true
			}
			p.markDown(rerr)
			n.met.forwardFailed.Add(1)
			n.cfg.Log.Warn("stream forward broke mid-flight, failing over",
				"peer", p.url, "job", id, "error", rerr)
			sp.Annotate("outcome", "failover")
			return false, true
		}
	}
}

// failoverStream recomputes a dead owner's job locally and serves its
// stream on the same response. Without a remembered submit body nothing can
// be replayed: a fresh response gets the canonical 404, a broken-off stream
// just ends (the client reconnects and re-resolves).
func (n *Node) failoverStream(w http.ResponseWriter, r *http.Request, id string, headerSent bool) {
	body, ok := n.forwardedBody(id)
	if !ok {
		if !headerSent {
			n.serveLocal(w, r, nil) // canonical 404
		}
		return
	}
	var req service.SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		if !headerSent {
			clusterWriteError(w, http.StatusInternalServerError, err)
		}
		return
	}
	js, err := n.cfg.Sched.SubmitCtx(r.Context(), service.Request{
		Experiment: req.Experiment,
		Options:    req.Key(),
		Tenant:     req.Tenant,
		Priority:   req.Priority,
		Deadline:   time.Duration(req.DeadlineMS) * time.Millisecond,
	})
	if err != nil {
		if !headerSent {
			clusterWriteError(w, http.StatusServiceUnavailable, err)
		}
		return
	}
	n.aliasJob(id, js.ID)
	n.met.fallbackLocal.Add(1)
	n.cfg.Log.Warn("stream owner unreachable, recomputing locally",
		"job", id, "local_job", js.ID)
	r2 := r.Clone(r.Context())
	r2.URL.Path = "/v1/jobs/" + js.ID + "/events"
	r2.URL.RawPath = ""
	r2.URL.RawQuery = "" // drop ?after= — local event IDs restart from zero
	r2.Header = r.Header.Clone()
	r2.Header.Del("Last-Event-ID")
	r2.Header.Set(ForwardedHeader, n.cfg.Self)
	var lw http.ResponseWriter = w
	if headerSent {
		lw = &midStreamWriter{w: w}
	}
	n.local.ServeHTTP(lw, r2)
}

// midStreamWriter continues an already-started response: the inner handler
// writes body bytes and flushes, while its header writes land in a scratch
// map (the real headers are on the wire already).
type midStreamWriter struct {
	w       http.ResponseWriter
	scratch http.Header
}

func (m *midStreamWriter) Header() http.Header {
	if m.scratch == nil {
		m.scratch = http.Header{}
	}
	return m.scratch
}

func (m *midStreamWriter) Write(b []byte) (int, error) { return m.w.Write(b) }

func (m *midStreamWriter) WriteHeader(int) {}

func (m *midStreamWriter) Flush() {
	if f, ok := m.w.(http.Flusher); ok {
		f.Flush()
	}
}
