// Command qsmload drives a qsmd deployment — single node or cluster — with
// a synthetic job stream and reports end-to-end latency percentiles,
// throughput, cache behavior, and per-node balance as JSON.
//
// Usage:
//
//	qsmload -targets http://localhost:8344                       # closed loop
//	qsmload -targets http://n0:8344,http://n1:8344 -workers 8
//	qsmload -targets ... -rate 50 -duration 30s                  # open loop
//	qsmload -targets ... -zipf 1.2 -keys 100 -out results/       # hot-key skew
//
// Each request submits one experiment job whose seed is drawn from a -keys
// sized key universe: with -zipf S (S > 1) keys follow a Zipf distribution,
// so a few hot keys dominate — the regime where a shared result cache and
// owner-routed forwarding pay off — and otherwise keys are uniform. Requests
// round-robin across -targets, so on a cluster most submissions land on a
// non-owner and measure the forwarding path.
//
// Closed loop (default) runs -workers synchronous clients: each submits a
// job, waits for it to complete, and immediately submits the next. Open
// loop (-rate N) fires submissions on a fixed schedule regardless of
// completions, measuring latency under offered load rather than sustainable
// load; arrivals beyond -max-inflight are counted as errors instead of
// queueing without bound.
//
// A submitted job that is not already done is watched over its SSE event
// stream (resuming with Last-Event-ID across drops), and the report's
// "stream" section carries time-to-first-event and inter-event-gap
// percentiles plus drop and reconnect counts.
//
// The report (stdout, or LOAD_<name>.json under -out) is a
// report.LoadRecord: p50/p90/p99/p999 latency, requests per second, cache
// hit ratio, jobs per executing node, and each target's forwarded vs local
// counters scraped from /statusz after the run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/stats"
)

func main() { cli.Main("qsmload", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("qsmload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		targets     = fs.String("targets", "http://localhost:8344", "comma-separated qsmd base URLs; requests round-robin across them")
		experiment  = fs.String("exp", "fig2", "experiment id each job runs")
		runs        = fs.Int("runs", 1, "repetitions per job (smaller = lighter jobs)")
		quick       = fs.Bool("quick", true, "submit quick (trimmed-sweep) jobs")
		duration    = fs.Duration("duration", 10*time.Second, "how long to offer load")
		workers     = fs.Int("workers", 4, "closed-loop concurrent clients")
		rate        = fs.Float64("rate", 0, "open-loop arrivals per second (0 = closed loop)")
		maxInflight = fs.Int("max-inflight", 256, "open-loop cap on concurrent requests; arrivals beyond it count as errors")
		keys        = fs.Int("keys", 20, "distinct job seeds (the key universe)")
		tenant      = fs.String("tenant", "", "tenant name stamped on every submission (fair-share queuing)")
		priority    = fs.Int("priority", 0, "submission priority (higher dequeues first, subject to aging)")
		deadlineMS  = fs.Int64("deadline-ms", 0, "per-job deadline in milliseconds (0 = none)")
		zipfS       = fs.Float64("zipf", 1.1, "Zipf skew exponent for key choice; <= 1 means uniform")
		seed        = fs.Int64("seed", 1, "generator seed (key sequence and worker jitter)")
		out         = fs.String("out", "", "write LOAD_<name>.json under this directory (or to this file if it ends in .json); default stdout")
		name        = fs.String("name", "qsmload", "report name used in the LOAD_<name>.json file name")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	urls := splitTargets(*targets)
	if len(urls) == 0 {
		return cli.Usagef("-targets must name at least one qsmd URL")
	}
	if *keys < 1 {
		*keys = 1
	}

	g := &generator{
		urls:       urls,
		exp:        *experiment,
		runs:       *runs,
		quick:      *quick,
		keys:       *keys,
		zipfS:      *zipfS,
		seed:       *seed,
		tenant:     *tenant,
		priority:   *priority,
		deadlineMS: *deadlineMS,
		perNode:    map[string]uint64{},
	}
	for _, u := range urls {
		g.clients = append(g.clients, &service.Client{
			BaseURL:        u,
			Retry:          service.RetryPolicy{MaxAttempts: 3, BaseBackoff: 20 * time.Millisecond, MaxBackoff: 200 * time.Millisecond, Seed: *seed},
			RequestTimeout: 30 * time.Second,
		})
	}

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()
	start := time.Now()
	mode := "closed"
	if *rate > 0 {
		mode = "open"
		g.runOpen(ctx, *rate, *maxInflight)
	} else {
		g.runClosed(ctx, *workers)
	}
	wall := time.Since(start)

	rec := &report.LoadRecord{
		Experiment:  *experiment,
		Mode:        mode,
		Targets:     urls,
		Workers:     *workers,
		RatePerSec:  *rate,
		Seed:        *seed,
		Keys:        *keys,
		ZipfS:       *zipfS,
		WallSeconds: wall.Seconds(),
		Requests:    g.requests.Load(),
		Errors:      g.errors.Load(),
		CacheHits:   g.cacheHits.Load(),
		PerNode:     g.perNode,
		NodeStats:   scrapeNodeStats(urls),
		Stream: &report.StreamLoadStats{
			Watched:    g.watched.Load(),
			Events:     g.streamEvents.Load(),
			Drops:      g.streamDrops.Load(),
			Reconnects: g.streamReconnects.Load(),
			TTFE:       report.SummarizeLatency(g.ttfe),
			EventGap:   report.SummarizeLatency(g.gaps),
		},
	}
	if mode == "closed" {
		rec.RatePerSec = 0
	}
	rec.Finish(g.latencies)

	if *out == "" {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rec)
	}
	path, err := report.WriteLoad(*out, *name, rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "qsmload: wrote %s (%d requests, %.1f req/s, p50 %.1fms p99 %.1fms, hit ratio %.2f)\n",
		path, rec.Requests, rec.Throughput, rec.Latency.P50, rec.Latency.P99, rec.CacheHitRatio)
	return nil
}

func splitTargets(s string) []string {
	var urls []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			urls = append(urls, strings.TrimRight(t, "/"))
		}
	}
	return urls
}

// generator holds the shared load-run state.
type generator struct {
	urls       []string
	clients    []*service.Client
	exp        string
	runs       int
	quick      bool
	keys       int
	zipfS      float64
	seed       int64
	tenant     string
	priority   int
	deadlineMS int64

	requests  atomic.Uint64
	errors    atomic.Uint64
	cacheHits atomic.Uint64
	next      atomic.Uint64 // round-robin target cursor

	watched          atomic.Uint64 // jobs observed via an event stream
	streamEvents     atomic.Uint64
	streamDrops      atomic.Uint64
	streamReconnects atomic.Uint64

	mu        sync.Mutex
	latencies []float64         // milliseconds
	ttfe      []float64         // submit → first stream event, ms
	gaps      []float64         // between consecutive stream events, ms
	perNode   map[string]uint64 // executing node → jobs
}

// keyPicker returns a per-stream deterministic key chooser: Zipf-skewed
// when the exponent allows it (rand.NewZipf needs s > 1), uniform
// otherwise.
func (g *generator) keyPicker(stream int64) func() int64 {
	rng := stats.NewRand(g.seed, stream)
	if g.zipfS > 1 {
		z := rand.NewZipf(rng, g.zipfS, 1, uint64(g.keys-1))
		return func() int64 { return int64(z.Uint64()) + 1 }
	}
	return func() int64 { return rng.Int63n(int64(g.keys)) + 1 }
}

// one pushes a single job through a round-robin target and records its
// end-to-end latency, cache outcome, and executing node.
func (g *generator) one(ctx context.Context, key int64) {
	c := g.clients[g.next.Add(1)%uint64(len(g.clients))]
	req := service.SubmitRequest{
		Experiment: g.exp, Seed: key, Runs: g.runs, Quick: g.quick,
		Tenant: g.tenant, Priority: g.priority, DeadlineMS: g.deadlineMS,
	}
	start := time.Now()
	js, err := c.Submit(ctx, req)
	if err == nil && js.State != service.StateDone && js.State != service.StateFailed {
		js, err = g.watch(ctx, c, js.ID, start)
	}
	g.requests.Add(1)
	if err != nil || js.State != service.StateDone {
		g.errors.Add(1)
		return
	}
	if js.Cached {
		g.cacheHits.Add(1)
	}
	elapsed := float64(time.Since(start).Microseconds()) / 1000
	node := js.Node
	if node == "" {
		node = "(unnamed)"
	}
	g.mu.Lock()
	g.latencies = append(g.latencies, elapsed)
	g.perNode[node]++
	g.mu.Unlock()
}

// watch follows one job's event stream to the terminal state, timing the
// first event against the submit and the gaps between consecutive events.
func (g *generator) watch(ctx context.Context, c *service.Client, id string, start time.Time) (service.JobStatus, error) {
	g.watched.Add(1)
	var prev time.Time
	res, err := c.WatchJobDetail(ctx, id, 0, func(ev service.StreamEvent) {
		now := time.Now()
		g.mu.Lock()
		if prev.IsZero() {
			g.ttfe = append(g.ttfe, float64(now.Sub(start).Microseconds())/1000)
		} else {
			g.gaps = append(g.gaps, float64(now.Sub(prev).Microseconds())/1000)
		}
		g.mu.Unlock()
		prev = now
	})
	g.streamEvents.Add(uint64(res.Events))
	g.streamDrops.Add(uint64(res.Drops))
	g.streamReconnects.Add(uint64(res.Reconnects))
	return res.Status, err
}

// runClosed runs n synchronous clients until the context expires. In-flight
// jobs finish measuring after the deadline (their submission was offered in
// time), so the tail is not truncated.
func (g *generator) runClosed(ctx context.Context, n int) {
	if n < 1 {
		n = 1
	}
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(stream int64) {
			defer wg.Done()
			pick := g.keyPicker(stream)
			for ctx.Err() == nil {
				// Completed jobs keep their measurement even when the
				// deadline comes while a job is being watched.
				g.one(context.WithoutCancel(ctx), pick())
				if ctx.Err() != nil {
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// runOpen fires arrivals at the offered rate until the context expires,
// capping concurrency at maxInflight (excess arrivals are dropped and
// counted as errors: an overloaded open-loop run must show up in the error
// count, not in unbounded memory).
func (g *generator) runOpen(ctx context.Context, rate float64, maxInflight int) {
	if maxInflight < 1 {
		maxInflight = 1
	}
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	sem := make(chan struct{}, maxInflight)
	pick := g.keyPicker(0)
	var wg sync.WaitGroup
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			wg.Wait()
			return
		case <-tick.C:
			key := pick()
			select {
			case sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					g.one(context.WithoutCancel(ctx), key)
				}()
			default:
				g.requests.Add(1)
				g.errors.Add(1)
			}
		}
	}
}

// scrapeNodeStats pulls each target's cluster counters from /statusz after
// the run. Single-node targets (no cluster section) contribute zero rows.
func scrapeNodeStats(urls []string) []report.NodeLoadStats {
	var out []report.NodeLoadStats
	for _, u := range urls {
		st, err := fetchStatusz(u)
		if err != nil || st == nil {
			continue
		}
		out = append(out, report.NodeLoadStats{
			URL:           u,
			Forwarded:     st.Forwarded,
			Local:         st.Local,
			FallbackLocal: st.FallbackLocal,
			ReplicatedOut: st.ReplicatedOut,
			ReplicatedIn:  st.ReplicatedIn,
			ReadRepairs:   st.ReadRepairs,
		})
	}
	return out
}

func fetchStatusz(base string) (*cluster.Status, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/statusz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("statusz: %s", resp.Status)
	}
	var payload struct {
		Cluster *cluster.Status `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return nil, err
	}
	return payload.Cluster, nil
}
