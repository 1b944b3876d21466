// Command qsmd serves the paper's experiments over HTTP: a job scheduler
// with a bounded admission queue in front of the parallel experiment
// runner, memoized through a content-addressed result cache. Identical
// submissions (same experiment id, keyed options, and code fingerprint) are
// served from the cache without re-simulating; concurrent identical
// submissions share one simulation.
//
// Usage:
//
//	qsmd [-addr 127.0.0.1:8344] [-cache qsmd-cache] [-queue 64]
//	     [-workers 2] [-parallel 0] [-lru 128] [-drain 60s]
//	     [-job-timeout 0] [-retries 0] [-faults spec] [-fault-seed 1]
//	     [-log-level info] [-trace] [-trace-spans N]
//	     [-tenants spec | -tenants-file path]
//	     [-stream-buffer 64] [-stream-heartbeat 15s]
//	     [-self URL -peers URL,URL,... [-replicas 2] [-vnodes 64]
//	      [-ring-seed 1] [-node-name NAME]]
//
// -job-timeout bounds each execution attempt and -retries gives failed
// (non-cancelled) jobs a bounded retry budget. -faults arms the
// deterministic fault injector for chaos drills: a comma-separated list of
// class:every:max[:delay] rules (or "all:every:max") over the classes
// store_read, store_write, corrupt_entry, worker_panic, slow_job,
// http_error, http_drop, peer_down, peer_slow, stream_drop, stream_stall;
// -fault-seed picks the schedule. The same seed and spec replay the same
// fault schedule.
//
// Multi-tenant mode (-tenants "name:key[:maxactive[:maxqueued]],..." or
// -tenants-file with a JSON array of {"name","key","max_active",
// "max_queued"}) authenticates every submission by API key (X-Qsm-Api-Key
// or an Authorization bearer token) and enforces per-tenant concurrency
// and queue-depth quotas; rejections are 429 with Retry-After. Without
// either flag the server is anonymous and behaves exactly as before.
// Per-tenant usage appears on /statusz, /metricsz, and /v1/admin/state.
//
// Streaming: GET /v1/jobs/{id}/events pushes a job's lifecycle and
// progress events over SSE (NDJSON with "Accept: application/x-ndjson"),
// resumable via Last-Event-ID; POST /v1/jobs:batch submits many jobs whose
// merged events stream at GET /v1/batches/{id}/events. -stream-buffer
// sizes each subscriber's in-flight buffer (a slow consumer overflows it
// and sees a dropped marker instead of ever blocking the scheduler);
// -stream-heartbeat paces idle-connection keepalives.
//
// Cluster mode (-self + -peers, see internal/cluster) shards the result
// space across nodes with a consistent-hash ring: submissions and result
// reads forward to each key's owning node, freshly computed entries
// replicate to -replicas ring successors, and replica misses read-repair
// from the owners. Every node must be started with the same total member
// set (its own -self plus -peers), -replicas, -vnodes, and -ring-seed; the
// ring is pure configuration, so no coordination service is involved.
// -node-name (default: the -self URL's host:port) names this node in job
// IDs, job statuses and the qsmload balance report. Nodes route a job
// request by the name in its ID, so names must be unique within the ring.
//
// Observability: every request runs under a trace ID (adopted from the
// X-Qsm-Trace header or minted per request) that appears on each structured
// log line the request or its job emits. -trace additionally records
// wall-clock spans across every serving layer; a job's merged wall + sim
// trace is exported at /v1/jobs/{id}/trace for Perfetto. -log-level selects
// debug, info, warn, or error (logfmt text on stderr).
//
// API:
//
//	POST   /v1/jobs              {"experiment":"fig7","seed":1,"runs":2,"quick":true}
//	POST   /v1/jobs:batch        {"jobs":[...]} with per-item outcomes
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         job status (queued → running → done/failed)
//	GET    /v1/jobs/{id}/events  SSE/NDJSON event stream (Last-Event-ID resume)
//	GET    /v1/jobs/{id}/trace   merged wall + sim Perfetto trace (with -trace)
//	DELETE /v1/jobs/{id}         cancel a job
//	GET    /v1/batches/{id}/events  batch aggregate event stream
//	GET    /v1/results/{key}     cached result (tables + bench + metrics JSON)
//	PUT    /v1/results/{key}     accept a replicated entry (cluster mode)
//	GET    /v1/admin/state       scheduler/queue/subscriber introspection
//	GET    /healthz              liveness and drain state
//	GET    /metricsz             metrics registry as Prometheus text
//	GET    /statusz              live introspection snapshot (JSON)
//	GET    /debug/pprof/         runtime profiling (CPU, heap, goroutines, ...)
//
// /debug/pprof and /statusz sit outside the fault-injection middleware so
// the server stays debuggable mid-chaos-drill.
//
// On SIGTERM/SIGINT the server stops accepting HTTP, drains queued and
// in-flight jobs (cancelling them through their contexts if -drain expires)
// and exits 0 on a clean drain.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8344", "listen address")
		cacheDir   = flag.String("cache", "qsmd-cache", "result cache directory")
		queueCap   = flag.Int("queue", 64, "submission queue capacity (excess submissions get 429)")
		aging      = flag.Duration("aging", 5*time.Second, "queue aging step: +1 effective priority per step waited (starvation protection)")
		workers    = flag.Int("workers", 2, "jobs simulated concurrently")
		parallel   = flag.Int("parallel", 0, "worker goroutines per simulation sweep (0 = GOMAXPROCS)")
		lru        = flag.Int("lru", store.DefaultMaxMem, "in-memory LRU entry bound in front of the disk cache")
		drain      = flag.Duration("drain", 60*time.Second, "shutdown drain budget before in-flight jobs are cancelled")
		jobTimeout = flag.Duration("job-timeout", 0, "per-attempt job execution bound (0 = none)")
		retries    = flag.Int("retries", 0, "extra attempts for failed non-cancelled jobs")
		faultSpec  = flag.String("faults", "", "fault-injection rules, class:every:max[:delay],... (chaos drills)")
		faultSeed  = flag.Int64("fault-seed", 1, "seed for the deterministic fault schedule")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug, info, warn, or error")
		traceOn    = flag.Bool("trace", false, "record wall-clock spans for every serving layer (export at /v1/jobs/{id}/trace)")
		traceSpans = flag.Int("trace-spans", 0, "wall-span buffer bound (0 = default)")
		tenantSpec = flag.String("tenants", "", "API tenants, name:key[:maxactive[:maxqueued]],... (enables keyed multi-tenant mode)")
		tenantFile = flag.String("tenants-file", "", "JSON file with an array of tenant configs (alternative to -tenants)")
		streamBuf  = flag.Int("stream-buffer", 0, "per-subscriber stream event buffer (0 = default 64)")
		streamHB   = flag.Duration("stream-heartbeat", 0, "idle stream heartbeat period (0 = default 15s)")
		self       = flag.String("self", "", "this node's advertised base URL (enables cluster mode with -peers)")
		peersFlag  = flag.String("peers", "", "comma-separated peer base URLs (cluster mode)")
		replicas   = flag.Int("replicas", 2, "cluster copies of each result, owner included (1 disables replication)")
		vnodes     = flag.Int("vnodes", cluster.DefaultVNodes, "ring virtual nodes per member; must match across the cluster")
		ringSeed   = flag.Int64("ring-seed", 1, "ring placement seed; must match across the cluster")
		nodeName   = flag.String("node-name", "", "node name stamped into job IDs and statuses; must be unique within the ring (default: -self host:port)")
	)
	flag.Parse()
	logger := obs.NewLogger(os.Stderr, obs.ParseLogLevel(*logLevel))
	fatal := func(err error) {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}

	inj, err := faults.FromSpec(*faultSeed, *faultSpec)
	if err != nil {
		fatal(err)
	}
	if inj != nil {
		logger.Info("fault injection armed", "seed", *faultSeed, "spec", *faultSpec)
	}
	var tracer *obs.WallTracer
	if *traceOn {
		tracer = obs.NewWallTracer(*traceSpans)
	}
	st, err := store.OpenConfig(store.Config{Dir: *cacheDir, MaxMem: *lru, Faults: inj})
	if err != nil {
		fatal(err)
	}
	var tenants []service.TenantConfig
	switch {
	case *tenantSpec != "" && *tenantFile != "":
		fatal(errors.New("-tenants and -tenants-file are mutually exclusive"))
	case *tenantSpec != "":
		if tenants, err = service.ParseTenants(*tenantSpec); err != nil {
			fatal(err)
		}
	case *tenantFile != "":
		if tenants, err = service.LoadTenantsFile(*tenantFile); err != nil {
			fatal(err)
		}
	}
	if len(tenants) > 0 {
		logger.Info("multi-tenant mode", "tenants", len(tenants))
	}
	peers := splitPeers(*peersFlag)
	clustered := *self != "" || len(peers) > 0
	if clustered && (*self == "" || len(peers) == 0) {
		fatal(errors.New("cluster mode needs both -self and -peers"))
	}
	name := *nodeName
	if clustered && name == "" {
		if u, perr := url.Parse(*self); perr == nil && u.Host != "" {
			name = u.Host
		} else {
			name = *self
		}
	}
	// The scheduler's state hook reaches the cluster node through an atomic
	// pointer: the node wraps the scheduler's handler, so the scheduler must
	// exist first, but the hook only fires once jobs run.
	var nodePtr atomic.Pointer[cluster.Node]
	sched, err := service.New(service.Config{
		Store:           st,
		QueueCap:        *queueCap,
		AgingStep:       *aging,
		Workers:         *workers,
		SimParallelism:  *parallel,
		NodeName:        name,
		CollectMetrics:  true,
		CollectTrace:    *traceOn,
		JobTimeout:      *jobTimeout,
		JobRetries:      *retries,
		Tenants:         tenants,
		StreamBuffer:    *streamBuf,
		StreamHeartbeat: *streamHB,
		Faults:          inj,
		Log:             logger,
		Tracer:          tracer,
		StateHook: func(js service.JobStatus) {
			if nd := nodePtr.Load(); nd != nil {
				nd.JobStateHook(js)
			}
		},
	})
	if err != nil {
		fatal(err)
	}
	var node *cluster.Node
	apiHandler := sched.Handler()
	if clustered {
		node, err = cluster.New(cluster.Config{
			Self:     *self,
			Peers:    peers,
			Replicas: *replicas,
			VNodes:   *vnodes,
			RingSeed: *ringSeed,
			Store:    st,
			Sched:    sched,
			Faults:   inj,
			Log:      logger,
			Tracer:   tracer,
		})
		if err != nil {
			fatal(err)
		}
		nodePtr.Store(node)
		apiHandler = node.Handler()
		logger.Info("cluster mode", "self", *self, "node", name, "members", len(peers)+1,
			"replicas", *replicas, "vnodes", *vnodes, "ring_seed", *ringSeed)
	}

	// The API runs traced and fault-injected (trace middleware outermost, so
	// injected aborts still commit their request span); the debug surface
	// bypasses both so profiling and introspection survive chaos drills. In
	// cluster mode the cluster router wraps the local API inside the same
	// chain, and /statusz grows a cluster section.
	mux := http.NewServeMux()
	mux.Handle("/", sched.TraceMiddleware(faults.Middleware(inj, apiHandler)))
	mux.HandleFunc("GET /statusz", func(w http.ResponseWriter, r *http.Request) {
		payload := struct {
			service.Status
			Cluster *cluster.Status `json:"cluster,omitempty"`
		}{Status: sched.Status()}
		if node != nil {
			cs := node.Status()
			payload.Cluster = &cs
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(payload)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	srv := &http.Server{Addr: *addr, Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		logger.Info("signal received, shutting down HTTP")
		shCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			logger.Warn("http shutdown", "err", err)
		}
	}()

	logger.Info("listening",
		"addr", *addr, "cache", st.Dir(), "queue", *queueCap, "workers", *workers,
		"trace", *traceOn, "fingerprint", sched.Fingerprint())
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := sched.Drain(drainCtx); err != nil {
		logger.Error("drain incomplete", "err", err)
		os.Exit(1)
	}
	if node != nil {
		// After the drain every terminal state hook has fired; Close waits
		// for the replication pushes those hooks spawned.
		node.Close()
	}
	logger.Info("drained cleanly")
}

// splitPeers parses the -peers list.
func splitPeers(s string) []string {
	var urls []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			urls = append(urls, strings.TrimRight(p, "/"))
		}
	}
	return urls
}
