package main

// Per-layer metrics: what the traced replay observed on its workload
// (layerMetrics) and the fixed microprobes of every layer (probeMetrics).
// Everything is timed from here, around public calls; nothing in this file
// runs in a timed child.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algorithms"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/membank"
	"repro/internal/qsmlib"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	inputs "repro/internal/workload"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func usOf(ns float64) float64    { return ns / 1e3 }

// stateTimes turns Config.StateHook callbacks into queue-wait and run times.
type stateTimes struct {
	on      atomic.Bool // off during set-up and the plain slice
	mu      sync.Mutex
	queued  map[string]time.Time
	running map[string]time.Time
	waitMS  []float64
	runMS   []float64
}

func newStateTimes() *stateTimes {
	return &stateTimes{queued: map[string]time.Time{}, running: map[string]time.Time{}}
}

func (st *stateTimes) observe(js service.JobStatus) {
	if !st.on.Load() {
		return
	}
	now := time.Now()
	st.mu.Lock()
	defer st.mu.Unlock()
	switch js.State {
	case service.StateQueued:
		st.queued[js.ID] = now
	case service.StateRunning:
		if q, ok := st.queued[js.ID]; ok {
			st.waitMS = append(st.waitMS, ms(now.Sub(q)))
			delete(st.queued, js.ID)
		}
		st.running[js.ID] = now
	default:
		if r, ok := st.running[js.ID]; ok {
			st.runMS = append(st.runMS, ms(now.Sub(r)))
			delete(st.running, js.ID)
		}
	}
}

// snapshot is the process and stack state the replay's deltas start from.
type snapshot struct {
	mem             runtime.MemStats // after a forced GC
	steals          uint64
	jobs            int
	hits, submitted uint64
}

func (s *stack) snapshot() snapshot {
	var sn snapshot
	runtime.GC()
	runtime.ReadMemStats(&sn.mem)
	sn.steals = sched.Totals().Steals
	for _, m := range s.members {
		sn.jobs += len(m.sched.Jobs())
		st := m.sched.Status()
		sn.hits += st.Scheduler.CacheHits
		sn.submitted += st.Scheduler.Submitted
	}
	return sn
}

// layerMetrics fills o.layer with what the traced replay observed on a
// serve-*/cluster-* workload.
func (s *stack) layerMetrics(w workload, o *outcome, results []opResult, hooks *stateTimes, before snapshot) {
	t0 := time.Now()
	for _, m := range s.members {
		m.sched.Status()
	}
	statusMS := ms(time.Since(t0)) / float64(len(s.members))
	after := s.snapshot()
	L := o.layer
	ops := float64(len(results))

	var submit, wait, result, ttfe, fwd, local []float64
	for _, r := range results {
		if r.err != nil {
			continue
		}
		submit, result = append(submit, ms(r.submit)), append(result, ms(r.result))
		if w.cold {
			wait, ttfe = append(wait, ms(r.wait)), append(ttfe, ms(r.ttfe))
		}
		if r.forwarded {
			fwd = append(fwd, ms(r.total))
		} else {
			local = append(local, ms(r.total))
		}
	}
	L["client.submit_ms_p50"] = percentile(submit, 50)
	L["client.wait_ms_p50"] = percentile(wait, 50)
	L["client.result_ms_p50"] = percentile(result, 50)
	L["client.op_ms_p90"] = percentile(o.lat, 90)
	L["client.op_ms_p99"] = percentile(o.lat, 99)
	L["client.op_ms_p999"] = percentile(o.lat, 99.9)

	hooks.mu.Lock()
	L["service.queue_wait_ms_p50"] = percentile(hooks.waitMS, 50)
	L["service.run_ms_p50"] = percentile(hooks.runMS, 50)
	hooks.mu.Unlock()
	L["service.stream_ttfe_ms_p50"] = percentile(ttfe, 50)
	// The process holds every layer's heap at once, so the growth per op is
	// charged to the outermost layer the workload adds: cluster on
	// cluster-hit, service otherwise.
	retained := (float64(after.mem.HeapAlloc) - float64(before.mem.HeapAlloc)) / ops
	if w.nodes > 1 {
		L["cluster.bytes_retained_per_op"] = retained
		L["cluster.forwarded_share"] = float64(len(fwd)) / ops
		L["cluster.forward_hop_ms"] = percentile(fwd, 50) - percentile(local, 50)
	} else {
		L["service.bytes_retained_per_op"] = retained
	}
	L["service.jobs_retained"] = float64(after.jobs)
	L["service.status_ms"] = statusMS
	L["service.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	L["service.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	L["sched.steals_per_op"] = float64(after.steals-before.steals) / ops

	// Every result fetch follows a done job, so it finds its entry in the
	// store's memory; a submission does when the service counted a cache hit.
	hits := float64(after.hits - before.hits)
	L["store.mem_hit_share"] = (hits + ops) / (float64(after.submitted-before.submitted) + ops)

	// The simulator ran inside the server; its counts come back in the
	// result entry's bench record (for a cached key, the original run's).
	if r := results[0]; r.simEvents > 0 {
		L["experiments.unit_events"] = float64(r.simEvents)
		L["experiments.host_ns_per_event"] = r.simWallS * 1e9 / float64(r.simEvents)
	}
}

// ledgerIDs are the paper and extension drivers whose quick regeneration
// time is the committed per-figure baseline.
var ledgerIDs = []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
	"table2", "table3", "table4", "ext1", "ext2", "ext3", "ext4"}

// prober runs the microprobes, one span per probe.
type prober struct {
	ctx   context.Context
	tr    *tracer
	seed  int64
	quick bool
	L     map[string]float64
	err   error
}

// n scales a probe's iteration count for -quick.
func (p *prober) n(full int) int {
	if p.quick {
		return max(1, full/20)
	}
	return full
}

// timed runs fn once under a span and returns its wall time.
func (p *prober) timed(layer, name string, fn func()) time.Duration {
	sp := p.tr.begin(layer, name, -1, -1, 0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	p.tr.end(sp)
	return d
}

// perCall runs fn in 9 batches of n/9 calls under one span and returns the
// median batch's cost per call, in nanoseconds with all its digits.
func (p *prober) perCall(layer, name string, n int, fn func()) float64 {
	const batches = 9
	per := max(1, n/batches)
	var costs []float64
	p.timed(layer, name, func() {
		for b := 0; b < batches; b++ {
			t0 := time.Now()
			for i := 0; i < per; i++ {
				fn()
			}
			costs = append(costs, float64(time.Since(t0))/float64(per))
		}
	})
	return median(costs)
}

func (p *prober) fail(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

func (p *prober) runExperiment(id string, quick bool) time.Duration {
	return p.timed("experiments", "experiments.Run "+id, func() {
		_, err := experiments.Run(id, experiments.Options{Seed: p.seed, Runs: 1, Quick: quick, Parallelism: 1, Context: p.ctx})
		p.fail(err)
	})
}

// probeMetrics runs every layer's microprobe and adds the results to L. The
// probes do not depend on the workload; they run in every traced child so
// that each child's line carries every per-layer metric.
func probeMetrics(ctx context.Context, c config, tr *tracer, L map[string]float64) error {
	p := &prober{ctx: ctx, tr: tr, seed: c.seed, quick: c.quick, L: L}
	p.experiments()
	p.sim()
	p.membank()
	p.qsmlib()
	p.algorithms()
	p.sched()
	p.cluster()
	p.serving(filepath.Join(c.tmp, "probe"))
	return p.err
}

func (p *prober) experiments() {
	p.L["experiments.calibrate_ms"] = ms(p.timed("experiments", "experiments.Calibrate", func() {
		experiments.Calibrate(machine.DefaultNet(), p.seed, 1)
	}))
	for _, id := range ledgerIDs {
		if p.ctx.Err() != nil {
			return
		}
		p.L["experiments.quick_ms."+id] = ms(p.runExperiment(id, true))
	}
	// table3 drives only msg over machine; table2 is the cpu timing model
	// alone (zero sim events).
	p.L["msg.table3_ms"] = ms(p.runExperiment("table3", false))
	p.L["cpu.table2_ms"] = ms(p.runExperiment("table2", false))
}

func (p *prober) sim() {
	const procs = 16
	per := p.n(1_000_000) / procs
	perEvent := func(name string, spawn func(e *sim.Engine, i int)) float64 {
		e := sim.NewEngine()
		for i := 0; i < procs; i++ {
			spawn(e, i)
		}
		d := p.timed("sim", name, func() { p.fail(e.Run()) })
		return float64(d) / math.Max(1, float64(e.Events()))
	}
	p.L["sim.step_ns_per_event"] = perEvent("StepProc wake-ups", func(e *sim.Engine, i int) {
		j := 0
		e.SpawnStep("sleeper", func(sp *sim.StepProc) sim.Status {
			if j == per {
				return sim.StepDone
			}
			j++
			return sp.Sleep(sim.Time(1 + i))
		})
	})
	p.L["sim.goproc_ns_per_event"] = perEvent("goroutine Proc wake-ups", func(e *sim.Engine, i int) {
		e.Spawn("sleeper", func(pr *sim.Proc) {
			for j := 0; j < per; j++ {
				pr.Advance(sim.Time(1 + i))
			}
		})
	})

	msgs := p.n(200_000)
	e := sim.NewEngine()
	ch := e.NewChan()
	e.Spawn("recv", func(pr *sim.Proc) {
		for i := 0; i < msgs; i++ {
			ch.Recv(pr)
		}
	})
	e.Spawn("send", func(pr *sim.Proc) {
		for i := 0; i < msgs; i++ {
			pr.Advance(1)
			ch.SendAfter(1, i)
		}
	})
	d := p.timed("sim", "Chan ping", func() { p.fail(e.Run()) })
	p.L["sim.chan_ns_per_msg"] = float64(d) / float64(msgs)
}

func (p *prober) membank() {
	cfg := membank.CrayT3E()
	n := p.n(10_000)
	for _, pat := range []membank.Pattern{membank.Random, membank.Conflict, membank.NoConflict} {
		d := p.timed("membank", "membank.Run "+pat.String(), func() { membank.Run(cfg, pat, n, p.seed) })
		p.L["membank.ns_per_access."+strings.ToLower(pat.String())] = float64(d) / float64(cfg.Procs*n)
	}
}

func (p *prober) qsmlib() {
	const procs = 16
	words := p.n(4096)
	exchange := func(get bool) time.Duration {
		m := qsmlib.New(procs, qsmlib.Options{Seed: p.seed})
		name := "all-to-all put"
		if get {
			name = "all-to-all get"
		}
		return p.timed("qsmlib", name, func() {
			p.fail(m.Run(func(ctx core.Ctx) {
				// Blocked layout: processor j owns [j*procs*words, (j+1)*procs*words).
				h := ctx.Register("probe", procs*procs*words)
				ctx.Sync()
				buf := make([]int64, words)
				for j := 0; j < procs; j++ {
					if j == ctx.ID() {
						continue
					}
					off := (j*procs + ctx.ID()) * words
					if get {
						ctx.Get(h, off, buf)
					} else {
						ctx.Put(h, off, buf)
					}
				}
				ctx.Sync()
			}))
		})
	}
	moved := float64(procs * (procs - 1) * words)
	p.L["qsmlib.put_ns_per_word"] = float64(exchange(false)) / moved
	p.L["qsmlib.get_ns_per_word"] = float64(exchange(true)) / moved

	phases := p.n(200)
	m := qsmlib.New(procs, qsmlib.Options{Seed: p.seed})
	d := p.timed("qsmlib", "empty Syncs", func() {
		p.fail(m.Run(func(ctx core.Ctx) {
			for i := 0; i < phases; i++ {
				ctx.Sync()
			}
		}))
	})
	p.L["qsmlib.sync_us_per_phase"] = us(d) / float64(phases)
}

func (p *prober) algorithms() {
	const procs = 16
	n := p.n(131072)
	in := inputs.UniformInts(n, 0, p.seed)
	sorter := algorithms.SampleSort{N: n, Input: func(id, np int) []int64 {
		lo, hi := inputs.Partition(n, np, id)
		return in[lo:hi]
	}}
	m := qsmlib.New(procs, qsmlib.Options{Seed: p.seed})
	p.L["algorithms.sort_ms"] = ms(p.timed("algorithms", "SampleSort", func() { p.fail(m.Run(sorter.Program())) }))

	ranker := algorithms.ListRank{List: inputs.RandomList(p.n(65536), p.seed)}
	m = qsmlib.New(procs, qsmlib.Options{Seed: p.seed})
	p.L["algorithms.listrank_ms"] = ms(p.timed("algorithms", "ListRank", func() { p.fail(m.Run(ranker.Program())) }))
}

func (p *prober) sched() {
	const jobs = 4096
	d := p.perCall("sched", "sched.Map", p.n(180), func() { sched.Map(2, jobs, func(int) {}, sched.Options{}) })
	p.L["sched.map_ns_per_job"] = d / jobs
}

func (p *prober) cluster() {
	ring, err := cluster.NewRing(1, 0, []string{"http://n0", "http://n1", "http://n2"})
	if err != nil {
		p.fail(err)
		return
	}
	key := store.ResultKey("fig1", experiments.OptionsKey{Seed: p.seed, Runs: 1, Quick: true}, clusterFingerprint)
	p.L["cluster.ring_owners_ns"] = p.perCall("cluster", "Ring.Owners", p.n(450_000), func() { ring.Owners(key, 2) })
}

// serving probes the store and the service on a one-member stack holding a
// small (fig1, ~5 KB) and a large (fig7 with its metrics blob, ~390 KB)
// entry, in process: no socket, no client.
func (p *prober) serving(dir string) {
	s, err := bootStack(dir, 1, nil)
	if err != nil {
		p.fail(err)
		return
	}
	defer s.close()
	m := s.members[0]
	small := service.SubmitRequest{Experiment: "fig1", Seed: p.seed, Runs: 1, Quick: true}
	large := service.SubmitRequest{Experiment: "fig7", Seed: p.seed, Runs: 1, Quick: true}
	entries := map[string]*store.Entry{}
	for _, req := range []service.SubmitRequest{small, large} {
		r := s.doOp(p.ctx, 0, req, true, nil, 0, 0)
		if r.err != nil {
			p.fail(fmt.Errorf("serving probe: %w", r.err))
			return
		}
		e, ok, err := m.store.Get(r.key)
		if err != nil || !ok {
			p.fail(fmt.Errorf("serving probe: entry %s not in the store: %v", req.Experiment, err))
			return
		}
		entries[req.Experiment] = e
	}
	smallKey, largeKey := entries["fig1"].Key, entries["fig7"].Key
	fp := m.sched.Fingerprint()

	p.L["store.result_key_us"] = usOf(p.perCall("store", "store.ResultKey", p.n(90_000), func() {
		store.ResultKey(small.Experiment, small.Key(), fp)
	}))
	p.L["store.get_mem_us"] = usOf(p.perCall("store", "Store.Get mem", p.n(900_000), func() { m.store.Get(smallKey) }))
	missing := strings.Repeat("0", 64)
	p.L["store.get_miss_us"] = usOf(p.perCall("store", "Store.Get miss", p.n(18_000), func() { m.store.Get(missing) }))
	p.L["store.get_disk_us"] = usOf(p.perCall("store", "Store.Get disk", p.n(1800), func() {
		// A fresh store over the same directory has nothing in memory.
		fresh, err := store.OpenConfig(store.Config{Dir: m.store.Dir()})
		if err != nil {
			p.fail(err)
			return
		}
		if _, ok, err := fresh.Get(smallKey); err != nil || !ok {
			p.fail(fmt.Errorf("disk read of %s: found %v: %v", smallKey, ok, err))
		}
	}))
	scratch, err := store.OpenConfig(store.Config{Dir: filepath.Join(dir, "put")})
	if err != nil {
		p.fail(err)
		return
	}
	for _, put := range []struct {
		metric string
		e      *store.Entry
		n      int
	}{{"store.put_small_us", entries["fig1"], 900}, {"store.put_large_us", entries["fig7"], 90}} {
		e := *put.e // Put stamps the checksum; keep the served entry untouched
		p.L[put.metric] = usOf(p.perCall("store", "Store.Put "+e.Experiment, p.n(put.n), func() { p.fail(scratch.Put(&e)) }))
	}

	hit := service.Request{Experiment: small.Experiment, Options: small.Key()}
	p.L["service.submit_hit_us"] = usOf(p.perCall("service", "Scheduler.Submit hit", p.n(18_000), func() {
		if js, err := m.sched.Submit(hit); err != nil || !js.Cached {
			p.fail(fmt.Errorf("submit of a cached key: cached %v: %v", js.Cached, err))
		}
	}))
	h := m.sched.Handler()
	body, _ := json.Marshal(small) // plain data; cannot fail
	serve := func(method, path string, body []byte, n int) float64 {
		return p.perCall("service", "Handler "+method+" "+path[:min(len(path), 20)], p.n(n), func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			if rec.Code >= 300 {
				p.fail(fmt.Errorf("%s %s answered %d", method, path, rec.Code))
			}
		})
	}
	p.L["service.handler_submit_hit_us"] = usOf(serve(http.MethodPost, "/v1/jobs", body, 18_000))
	p.L["service.handler_result_small_us"] = usOf(serve(http.MethodGet, "/v1/results/"+smallKey, nil, 9000))
	p.L["service.handler_result_large_us"] = usOf(serve(http.MethodGet, "/v1/results/"+largeKey, nil, 180))
}
