package cluster

// Job reads across the ring. Every job route — GET, DELETE, trace GET and
// GET /v1/jobs/{id}/events — resolves the job ID the same way (handleJob):
// the failover alias, then the live peer the ID names, then failover, then
// the local answer. A proxied stream is relayed frame by frame with the
// inbound trace ID attached, so one trace covers the submit, the hop, and
// the stream. Failover handles an owner that is down, or whose stream
// breaks mid-flight, and may be gone for good: the node replays the
// remembered submit into its own scheduler (deterministically
// byte-identical results), aliases the remote job ID to the local one so
// later reads resolve, and answers from the local job — a broken-off
// stream goes on in the same response. Local event IDs restart from zero;
// service.Client tolerates the restart. The requests and aliases live in
// one table bounded by failoverEntries.

import (
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/service"
)

// handleJob serves every job route — GET, DELETE, trace GET and the events
// stream — through one resolution, tried in order:
//
//  1. the alias: a job this node failed over answers as its local stand-in;
//  2. the live peer the job ID names, proxied (a stream frame by frame);
//  3. failover: the remembered request of a job this node forwarded is
//     replayed into the local scheduler, aliased, and answered as in 1. A
//     DELETE skips this step: a job is never resubmitted only to cancel it;
//  4. the local answer: this node's own job, or the canonical 404.
//
// A stream whose peer breaks off mid-flight goes on to step 3 on the same
// response, and just ends (the client reconnects) when nothing is remembered.
func (n *Node) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	remembered := n.failover.get(id)
	if remembered.localID != "" {
		n.serveAs(w, r, id, remembered.localID, false)
		return
	}
	headerSent := false
	if p := n.jobPeer(r); p != nil {
		var done bool
		if strings.HasSuffix(r.Pattern, "/events") {
			done, headerSent = n.forwardStream(w, r, p, id)
		} else {
			_, done = n.forward(w, r, p, nil)
		}
		if done {
			return
		}
	}
	if remembered.req != nil && r.Method != http.MethodDelete {
		js, err := n.cfg.Sched.SubmitCtx(r.Context(), *remembered.req)
		if err != nil {
			if !headerSent {
				clusterWriteError(w, http.StatusServiceUnavailable, err)
			}
			return
		}
		n.failover.update(id, func(e *failoverEntry) { e.localID = js.ID })
		n.met.fallbackLocal.Add(1)
		n.cfg.Log.Warn("job owner unreachable, recomputing locally", "job", id, "local_job", js.ID)
		if headerSent {
			w = &midStreamWriter{w: w}
		}
		n.serveAs(w, r, id, js.ID, true)
		return
	}
	if !headerSent {
		n.serveLocal(w, r, nil)
	}
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

// serveAs answers r locally for localID, the job that stands in for id. A
// fresh stand-in's event IDs restart from zero, so the client's resume
// position, which counts id's events, is dropped.
func (n *Node) serveAs(w http.ResponseWriter, r *http.Request, id, localID string, fresh bool) {
	r2 := r.Clone(r.Context())
	r2.URL.Path = "/v1/jobs/" + localID + strings.TrimPrefix(r.URL.Path, "/v1/jobs/"+id)
	r2.URL.RawPath = ""
	if fresh {
		r2.URL.RawQuery = ""
		r2.Header.Del("Last-Event-ID")
	}
	n.local.ServeHTTP(w, r2)
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

// failoverEntries bounds the failover table; it is the size of the
// scheduler's ring of retained finished jobs.
const failoverEntries = 4096

// failoverTable holds what failover needs for the most recent
// failoverEntries forwarded job IDs, forgetting the oldest first; a
// forgotten ID fails over like one never forwarded.
type failoverTable struct {
	mu      sync.Mutex
	entries map[string]failoverEntry
	order   []string // a ring of IDs by insertion; order[next] is the oldest
	next    int
}

// failoverEntry is the request a forwarded job was submitted with and, once
// a failover has replayed it here, the local job that replaced it.
type failoverEntry struct {
	req     *service.Request
	localID string
}

// update applies set to id's entry, adding the entry — and evicting the
// oldest when the table is full — if it is absent.
func (t *failoverTable) update(id string, set func(*failoverEntry)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.entries == nil {
		t.entries, t.order = map[string]failoverEntry{}, make([]string, failoverEntries)
	}
	e, ok := t.entries[id]
	if !ok {
		delete(t.entries, t.order[t.next]) // an unused slot holds "", never an ID
		t.order[t.next] = id
		t.next = (t.next + 1) % failoverEntries
	}
	set(&e)
	t.entries[id] = e
}

// get returns id's entry, the zero entry if there is none.
func (t *failoverTable) get(id string) failoverEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.entries[id]
}
