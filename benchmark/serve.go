package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/store"
)

// clients is the closed-loop client count: each sends its next op only when
// the previous one completed. Two, because the box has two cores and the
// generator shares them with the server.
const clients = 2

// member is one in-process qsmd: store, scheduler, optional cluster node,
// and the loopback server in front of them.
type member struct {
	name  string
	store *store.Store
	sched *service.Scheduler
	node  *cluster.Node
	srv   *httptest.Server
}

// stack is the system under test for serve-* (one member) and cluster-hit
// (three), plus the one keep-alive transport every client shares.
type stack struct {
	dir     string
	members []*member
	httpc   *http.Client
	targets []*service.Client
}

const clusterFingerprint = "qsm-benchmark"

// bootStack starts n members configured as cmd/qsmd defaults (Workers 2,
// SimParallelism 2, QueueCap 64, CollectMetrics on, no tracer, no log) over
// fresh store directories under dir. hook, when non-nil, additionally sees
// every job state transition (the traced replay times queue and run with it).
func bootStack(dir string, n int, hook func(service.JobStatus)) (_ *stack, err error) {
	s := &stack{dir: dir, httpc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		// The listener exists before Start, so every member's URL is known
		// before any cluster node is built.
		m := &member{srv: httptest.NewUnstartedServer(nil)}
		urls[i] = "http://" + m.srv.Listener.Addr().String()
		if n > 1 {
			m.name = fmt.Sprintf("n%d", i)
		}
		s.members = append(s.members, m)
	}
	for i, m := range s.members {
		if m.store, err = store.OpenConfig(store.Config{Dir: filepath.Join(dir, fmt.Sprintf("store%d", i))}); err != nil {
			return nil, err
		}
		// As in cmd/qsmd, the scheduler must exist before the node that
		// wraps its handler, so the hook reaches the node through a pointer.
		var nodePtr atomic.Pointer[cluster.Node]
		cfg := service.Config{
			Store: m.store, Workers: 2, SimParallelism: 2, QueueCap: 64, CollectMetrics: true, NodeName: m.name,
			StateHook: func(js service.JobStatus) {
				if nd := nodePtr.Load(); nd != nil {
					nd.JobStateHook(js)
				}
				if hook != nil {
					hook(js)
				}
			},
		}
		if n > 1 {
			cfg.Fingerprint = clusterFingerprint
		}
		if m.sched, err = service.New(cfg); err != nil {
			return nil, err
		}
		api := m.sched.Handler()
		if n > 1 {
			var peers []string
			for j, u := range urls {
				if j != i {
					peers = append(peers, u)
				}
			}
			m.node, err = cluster.New(cluster.Config{
				Self: urls[i], Peers: peers, Replicas: 2, RingSeed: 1,
				Store: m.store, Sched: m.sched, HealthInterval: -1,
			})
			if err != nil {
				return nil, err
			}
			nodePtr.Store(m.node)
			api = m.node.Handler()
		}
		m.srv.Config.Handler = m.sched.TraceMiddleware(api)
	}
	for i, m := range s.members {
		m.srv.Start()
		s.targets = append(s.targets, &service.Client{BaseURL: urls[i], HTTP: s.httpc})
	}
	return s, nil
}

// close tears the stack down in dependency order: servers shut, cluster
// nodes closed (waits for replication pushes), schedulers drained, idle
// connections dropped, store directories removed.
func (s *stack) close() {
	for _, m := range s.members {
		if m.srv != nil {
			m.srv.CloseClientConnections()
			m.srv.Close()
		}
	}
	for _, m := range s.members {
		if m.node != nil {
			m.node.Close()
		}
		if m.sched != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			_ = m.sched.Drain(ctx) // on timeout Drain cancels the jobs itself and still waits
			cancel()
		}
	}
	s.httpc.CloseIdleConnections()
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections() // the cluster's peer clients
	}
	os.RemoveAll(s.dir)
}

// request builds the submission for one op of w.
func (c config) request(op int, warm bool) service.SubmitRequest {
	if c.w.cold {
		// Never-seen seeds: warm-up and timed ops draw from disjoint ranges.
		seed := 1_000_000*c.seed + int64(op)
		if warm {
			seed += 500_000
		}
		return service.SubmitRequest{Experiment: "fig7", Seed: seed, Runs: 1, Quick: true}
	}
	return c.hitRequest(keyIndex(c.seed, op, c.w.keys))
}

func (c config) hitRequest(k int) service.SubmitRequest {
	return service.SubmitRequest{Experiment: "fig1", Seed: 1000*c.seed + int64(k), Runs: 1, Quick: true}
}

// opResult is one completed op as the client saw it.
type opResult struct {
	err                  error
	submit, wait, result time.Duration
	total                time.Duration
	ttfe                 time.Duration // submit start to first stream event; traced cold ops only
	forwarded            bool
	key                  string  // content address of the result
	tables               string  // dropped after verification unless sampled
	simEvents            uint64  // from the entry's bench record: the
	simWallS             float64 // computation that produced it
}

// doOp is the unit of the serve workloads: submit, wait for the terminal
// state (cached jobs are terminal at admission), fetch the result. Spans go
// to tr under one op identifier.
func (s *stack) doOp(ctx context.Context, target int, req service.SubmitRequest, cold bool, tr *tracer, op, tid int) (r opResult) {
	cl := s.targets[target]
	root := tr.begin("benchmark", "op", -1, op, tid)
	t0 := time.Now()
	defer func() {
		r.total = time.Since(t0)
		tr.end(root)
	}()

	sp := tr.begin("client", "Client.Submit", root, op, tid)
	js, err := cl.Submit(ctx, req)
	tr.end(sp)
	r.submit = time.Since(t0)
	if err != nil {
		r.err = fmt.Errorf("submit: %w", err)
		return r
	}
	r.forwarded = js.Node != s.members[target].name

	if js.State != service.StateDone {
		if !cold {
			r.err = fmt.Errorf("cached key answered %q at admission", js.State)
			return r
		}
		t1 := time.Now()
		sp = tr.begin("client", "Client.WatchJob", root, op, tid)
		if tr != nil {
			var res service.WatchResult
			res, err = cl.WatchJobDetail(ctx, js.ID, 0, func(service.StreamEvent) {
				if r.ttfe == 0 {
					r.ttfe = time.Since(t0)
				}
			})
			js = res.Status
		} else {
			js, err = cl.WatchJob(ctx, js.ID)
		}
		tr.end(sp)
		r.wait = time.Since(t1)
		if err != nil {
			r.err = fmt.Errorf("watch: %w", err)
			return r
		}
	}
	if js.State != service.StateDone || js.ResultKey == "" {
		r.err = fmt.Errorf("job %s ended %q: %s", js.ID, js.State, js.Error)
		return r
	}

	t2 := time.Now()
	sp = tr.begin("client", "Client.Result", root, op, tid)
	e, err := cl.Result(ctx, js.ResultKey)
	tr.end(sp)
	r.result = time.Since(t2)
	if err != nil {
		r.err = fmt.Errorf("result: %w", err)
		return r
	}
	if e.Key != js.ResultKey || e.Experiment != req.Experiment || e.Options != req.Key() || e.Tables == "" {
		r.err = errors.New("result entry does not match the request")
		return r
	}
	r.key, r.tables = e.Key, e.Tables
	if e.Bench != nil {
		r.simEvents, r.simWallS = e.Bench.SimEvents, e.Bench.WallSeconds
	}
	return r
}

// prefill computes the cached keys through member 0 (both clients at once,
// as in the windows), reads each through every other member so every store
// holds every key (read-repair), and returns the expected table hash per key.
func (s *stack) prefill(ctx context.Context, c config) ([]string, error) {
	want := make([]string, c.w.keys)
	errs := make([]error, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	for cli := 0; cli < clients; cli++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for errs[cli] == nil {
				k := int(next.Add(1)) - 1
				if k >= len(want) {
					return
				}
				r := s.doOp(ctx, 0, c.hitRequest(k), true, nil, 0, 0)
				if r.err != nil {
					errs[cli] = fmt.Errorf("prefill key %d: %w", k, r.err)
					return
				}
				want[k] = hashTables(r.tables)
				for _, cl := range s.targets[1:] {
					if e, err := cl.Result(ctx, r.key); err != nil || e.Tables != r.tables {
						errs[cli] = fmt.Errorf("prefill key %d: replica read failed: %v", k, err)
					}
				}
			}
		}()
	}
	wg.Wait()
	return want, errors.Join(errs...)
}

// window runs ops base..base+n-1 from `clients` closed-loop clients drawing
// op indices from one counter, verifying each result. Targets rotate
// round-robin. The op index alone decides the key (and, for cold ops, the
// never-seen seed), so windows over disjoint ranges never share cold keys.
func (s *stack) window(ctx context.Context, c config, base, n int, warm bool, want []string, tr *tracer) (outcome, []opResult) {
	results := make([]opResult, n)
	done := make([]time.Duration, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for cli := 0; cli < clients; cli++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				op := base + i
				r := s.doOp(ctx, op%len(s.targets), c.request(op, warm), c.w.cold, tr, op, cli)
				if r.err == nil && !c.w.cold && hashTables(r.tables) != want[keyIndex(c.seed, op, c.w.keys)] {
					r.err = errors.New("tables differ from the ones set-up computed for this key")
				}
				if !c.w.cold || i%coldSample != 0 {
					r.tables = "" // verified; holding every body would be the benchmark's own leak
				}
				results[i], done[i] = r, time.Since(start)
			}
		}()
	}
	wg.Wait()
	o := outcome{attempted: n, done: done}
	for i := range results {
		r := &results[i]
		if r.err != nil || r.total == 0 {
			if o.failed == 0 {
				fmt.Fprintf(os.Stderr, "%s: op %d failed: %v\n", c.w.name, base+i, r.err)
			}
			o.failed++
		}
		o.lat = append(o.lat, float64(r.total)/float64(time.Millisecond))
	}
	return o, results
}

// coldSample is the stride of the cold results recomputed locally.
const coldSample = 50

// verifyCold recomputes every coldSample-th cold result (of a window that
// started at op 0) locally and compares the tables byte for byte; it returns
// how many differ.
func verifyCold(c config, results []opResult) (checked, bad int) {
	for op := 0; op < len(results); op += coldSample {
		if results[op].err != nil {
			continue
		}
		req := c.request(op, false)
		res, err := experiments.Run(req.Experiment, experiments.Options{Seed: req.Seed, Runs: req.Runs, Quick: req.Quick, Parallelism: 1})
		checked++
		if err != nil || res.String() != results[op].tables {
			bad++
		}
	}
	return checked, bad
}

// setupServe is one complete set-up: boot, prefill, warm-up ops.
func setupServe(ctx context.Context, c config, w workload, round int, hook func(service.JobStatus)) (*stack, []string, error) {
	s, err := bootStack(filepath.Join(c.tmp, fmt.Sprintf("round%d", round)), w.nodes, hook)
	if err != nil {
		return nil, nil, err
	}
	want, err := s.prefill(ctx, c)
	if err == nil {
		if wo, _ := s.window(ctx, c, 0, w.warm, true, want, nil); wo.failed > 0 {
			err = fmt.Errorf("%d of %d warm-up ops failed", wo.failed, wo.attempted)
		}
	}
	if err != nil {
		s.close()
		return nil, nil, err
	}
	return s, want, nil
}

// runServe is a serve-*/cluster-* child.
func runServe(ctx context.Context, c config) (outcome, error) {
	if c.w.keys > 0 && c.quick {
		c.w.keys = 4
	}
	w := c.w.sized(c.scale())
	var hooks *stateTimes
	var hook func(service.JobStatus)
	if c.traced {
		hooks = newStateTimes()
		hook = hooks.observe
	}
	var (
		s      *stack
		want   []string
		setups []float64
	)
	for r := 0; r < c.rounds(); r++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, want, err = setupServe(ctx, c, w, r, hook); err != nil {
			return outcome{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()

	if !c.traced {
		o, results := s.window(ctx, c, 0, w.timed, false, want, nil)
		o.setupS = median(setups)
		o.note = fmt.Sprintf("%d latency samples", len(o.lat))
		if w.cold {
			checked, bad := verifyCold(c, results)
			o.failed += bad
			o.note += fmt.Sprintf(", %d results recomputed locally", checked)
		}
		return o, ctx.Err()
	}

	// Traced child: a plain slice, then the traced replay (see runSim).
	plainN := c.w.sized(c.scale() / 10).timed
	plain, _ := s.window(ctx, c, 0, plainN, false, want, nil)
	before := s.snapshot()
	hooks.on.Store(true)
	tr := newTracer()
	n := c.w.sized(c.scale() / 5).timed
	o, results := s.window(ctx, c, plainN, n, false, want, tr)

	o.layer = map[string]float64{"trace.overhead_share": o.latP50()/plain.latP50() - 1}
	s.layerMetrics(w, &o, results, hooks, before)
	o.attempted += plain.attempted
	o.failed += plain.failed
	o.note = fmt.Sprintf("%d traced ops; replay p50 %.4g ms against submit %.4g + wait %.4g + result %.4g",
		n, o.latP50(), o.layer["client.submit_ms_p50"], o.layer["client.wait_ms_p50"], o.layer["client.result_ms_p50"])
	o.tr = tr
	return o, ctx.Err()
}
