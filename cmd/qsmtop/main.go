// Command qsmtop is a live terminal dashboard for a running qsmd: it polls
// the server's /statusz and /metricsz endpoints and renders a one-screen
// view of the serving stack — queue depth, per-state job counts, scheduler
// counters, store health and degradation, fault-injection fire counts, and
// the busiest service metrics.
//
// Usage:
//
//	qsmtop [-server http://127.0.0.1:8344] [-interval 2s]
//	qsmtop -once            # one plain snapshot (no screen control), for CI
//
// In live mode the screen redraws every -interval until interrupted; -once
// prints a single snapshot and exits (non-zero when the server is
// unreachable), which is what the CI smoke uses.
//
// Against a cluster-mode qsmd the dashboard adds a cluster pane: peer
// liveness, each member's ring ownership share, and the node's forwarded vs
// local request and replication counters.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

func main() {
	var (
		server   = flag.String("server", "http://127.0.0.1:8344", "qsmd base URL")
		interval = flag.Duration("interval", 2*time.Second, "poll interval in live mode")
		once     = flag.Bool("once", false, "print one snapshot and exit (no screen control)")
		metricsN = flag.Int("metrics", 8, "service metric lines to show (0 hides the section)")
	)
	flag.Parse()
	base := strings.TrimRight(*server, "/")
	client := &http.Client{Timeout: 5 * time.Second}

	if *once {
		if err := render(os.Stdout, client, base, *metricsN); err != nil {
			fmt.Fprintf(os.Stderr, "qsmtop: %v\n", err)
			os.Exit(1)
		}
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	t := time.NewTicker(*interval)
	defer t.Stop()
	for {
		var b strings.Builder
		err := render(&b, client, base, *metricsN)
		// Clear and home only once the frame is built, so a slow poll
		// doesn't leave a blank screen.
		fmt.Print("\x1b[2J\x1b[H")
		if err != nil {
			fmt.Printf("qsmtop: %v (retrying every %s)\n", err, *interval)
		} else {
			fmt.Print(b.String())
		}
		select {
		case <-sig:
			return
		case <-t.C:
		}
	}
}

// render fetches one /statusz + /metricsz snapshot and writes the dashboard
// frame to w.
func render(w io.Writer, client *http.Client, base string, metricsN int) error {
	var payload struct {
		service.Status
		Cluster *cluster.Status `json:"cluster"`
	}
	if err := getJSON(client, base+"/statusz", &payload); err != nil {
		return err
	}
	st := payload.Status

	fmt.Fprintf(w, "qsmd %s — up %s — fingerprint %s — %s\n",
		base, fmtDuration(time.Duration(st.UptimeSeconds*float64(time.Second))),
		st.Fingerprint, time.Now().Format("15:04:05"))
	state := "serving"
	if st.Draining {
		state = "DRAINING"
	}
	fmt.Fprintf(w, "state   %-10s workers %d   goroutines %d\n", state, st.Workers, st.Goroutines)
	fmt.Fprintf(w, "queue   %d/%d waiting%s\n", st.Queue.Depth, st.Queue.Capacity, fmtTenants(st.Queue.Tenants))
	fmt.Fprintf(w, "jobs    queued %d   running %d   done %d   failed %d   (total %d)\n",
		st.Jobs.Queued, st.Jobs.Running, st.Jobs.Done, st.Jobs.Failed, st.Jobs.Total)
	fmt.Fprintf(w, "sched   submitted %d   cache hit/miss %d/%d   retried %d   rejected %d   failed %d   inflight %d   coalesced %d (%d batches)\n",
		st.Scheduler.Submitted, st.Scheduler.CacheHits, st.Scheduler.CacheMisses,
		st.Scheduler.Retried, st.Scheduler.Rejected, st.Scheduler.Failed, st.Scheduler.Inflight,
		st.Scheduler.Coalesced, st.Scheduler.CoalescedBatches)
	fmt.Fprintf(w, "store   mem %d (%.1f MB)   read-errors %d   checksum-fail %d   quarantined %d   degraded reads/writes %d/%d\n",
		st.Store.MemEntries, float64(st.Store.MemBytes)/1e6, st.Store.ReadErrors, st.Store.ChecksumFailures,
		st.Store.EntriesQuarantined, st.Store.ReadsDegraded, st.Store.WritesDegraded)
	if st.TraceEnabled {
		fmt.Fprintf(w, "trace   on   %d wall spans (%d dropped)\n", st.WallSpans, st.WallDropped)
	} else {
		fmt.Fprintf(w, "trace   off\n")
	}
	if st.Faults.Armed {
		fmt.Fprintf(w, "faults  armed   %s\n", fmtFaults(st.Faults.Injected))
	} else {
		fmt.Fprintf(w, "faults  unarmed\n")
	}
	renderStreams(w, st.Streams)
	renderTenants(w, st.Tenants)
	if cs := payload.Cluster; cs != nil {
		renderCluster(w, cs)
	}

	if metricsN > 0 {
		lines, err := serviceMetrics(client, base+"/metricsz", metricsN)
		if err != nil {
			return err
		}
		if len(lines) > 0 {
			fmt.Fprintf(w, "\nservice metrics (top %d of /metricsz)\n", len(lines))
			for _, l := range lines {
				fmt.Fprintf(w, "  %s\n", l)
			}
		}
	}
	return nil
}

// renderStreams writes the push-API line: live subscribers and the fan-out
// counters (a growing dropped count flags slow consumers).
func renderStreams(w io.Writer, ss service.StreamStatus) {
	fmt.Fprintf(w, "streams %d subscribers   opened %d   published %d   dropped %d\n",
		ss.Subscribers, ss.Opened, ss.Published, ss.Dropped)
}

// renderTenants writes the quota pane, one row per configured tenant;
// anonymous servers (no tenants) skip it.
func renderTenants(w io.Writer, tenants map[string]service.TenantStatus) {
	if len(tenants) == 0 {
		return
	}
	names := make([]string, 0, len(tenants))
	for t := range tenants {
		names = append(names, t)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "tenants %d configured\n", len(names))
	for _, name := range names {
		t := tenants[name]
		fmt.Fprintf(w, "  %-16s active %s   queued %s   submitted %d   rejected %d\n",
			name, fmtQuota(t.Active, t.MaxActive), fmtQuota(t.Queued, t.MaxQueued),
			t.Submitted, t.Rejected)
	}
}

// fmtQuota renders "used/limit", with "-" for unlimited.
func fmtQuota(used, limit int) string {
	if limit <= 0 {
		return fmt.Sprintf("%d/-", used)
	}
	return fmt.Sprintf("%d/%d", used, limit)
}

// fmtTenants renders per-tenant queue depths as a suffix for the queue line.
func fmtTenants(tenants map[string]int) string {
	if len(tenants) == 0 {
		return ""
	}
	names := make([]string, 0, len(tenants))
	for t := range tenants {
		names = append(names, t)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, t := range names {
		if t == "" {
			t = "(default)"
		}
		parts = append(parts, fmt.Sprintf("%s %d", t, tenants[t]))
	}
	return "   by tenant: " + strings.Join(parts, "   ")
}

// renderCluster writes the cluster pane: membership and routing counters on
// the node line, then one row per peer with liveness and ring share.
func renderCluster(w io.Writer, cs *cluster.Status) {
	fmt.Fprintf(w, "\ncluster %d members   replicas %d   vnodes %d   seed %d\n",
		len(cs.Members), cs.Replicas, cs.VNodes, cs.RingSeed)
	fmt.Fprintf(w, "  route forwarded %d   local %d   fallback %d   fwd-failures %d\n",
		cs.Forwarded, cs.Local, cs.FallbackLocal, cs.ForwardFailures)
	fmt.Fprintf(w, "  repl  out %d   in %d   failures %d   read-repairs %d\n",
		cs.ReplicatedOut, cs.ReplicatedIn, cs.ReplicateFailures, cs.ReadRepairs)
	fmt.Fprintf(w, "  %-40s %-6s %8s %8s %8s\n", "member", "state", "share", "checks", "failures")
	fmt.Fprintf(w, "  %-40s %-6s %7.1f%% %8s %8s\n", trimURL(cs.Self), "self", cs.Shares[cs.Self]*100, "-", "-")
	for _, p := range cs.Peers {
		state := "up"
		if !p.Alive {
			state = "DOWN"
		}
		fmt.Fprintf(w, "  %-40s %-6s %7.1f%% %8d %8d\n",
			trimURL(p.URL), state, cs.Shares[p.URL]*100, p.Checks, p.Failures)
		if p.LastError != "" {
			fmt.Fprintf(w, "    last error: %s\n", p.LastError)
		}
	}
}

// trimURL drops the scheme so member rows fit the pane.
func trimURL(u string) string {
	u = strings.TrimPrefix(u, "http://")
	return strings.TrimPrefix(u, "https://")
}

func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// serviceMetrics scrapes /metricsz and returns up to n service-subsystem
// sample lines (skipping comments), already sorted by the exporter.
func serviceMetrics(client *http.Client, url string, n int) ([]string, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var lines []string
	for _, l := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(l, "qsm_service_") {
			lines = append(lines, l)
		}
	}
	if len(lines) > n {
		lines = lines[:n]
	}
	return lines, nil
}

// fmtFaults renders the per-class fire counts, fired classes first.
func fmtFaults(injected map[string]uint64) string {
	classes := make([]string, 0, len(injected))
	for c := range injected {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool {
		if injected[classes[i]] != injected[classes[j]] {
			return injected[classes[i]] > injected[classes[j]]
		}
		return classes[i] < classes[j]
	})
	parts := make([]string, 0, len(classes))
	for _, c := range classes {
		parts = append(parts, fmt.Sprintf("%s %d", c, injected[c]))
	}
	if len(parts) == 0 {
		return "(no classes)"
	}
	return strings.Join(parts, "   ")
}

func fmtDuration(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%dh%02dm", int(d.Hours()), int(d.Minutes())%60)
	case d >= time.Minute:
		return fmt.Sprintf("%dm%02ds", int(d.Minutes()), int(d.Seconds())%60)
	default:
		return fmt.Sprintf("%.1fs", d.Seconds())
	}
}
