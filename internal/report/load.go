package report

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strings"
)

// LoadRecord is one qsmload run's report: offered load, end-to-end latency
// percentiles, cache behavior, and how the work spread across cluster
// nodes. It is the cluster-level sibling of BenchRecord — BENCH files track
// the simulator's raw throughput, LOAD files track the serving stack's.
type LoadRecord struct {
	Experiment string `json:"experiment"`
	// Mode is "closed" (each worker submits, waits, repeats) or "open"
	// (requests arrive on a fixed schedule regardless of completions).
	Mode string `json:"mode"`
	// Targets is the qsmd endpoints load was spread across.
	Targets []string `json:"targets"`
	Workers int      `json:"workers,omitempty"`
	// RatePerSec is the offered arrival rate in open mode; 0 in closed mode.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	Seed       int64   `json:"seed"`
	// Keys is the distinct-key universe size and ZipfS the skew exponent
	// (>1 Zipf-distributed hot keys, else uniform).
	Keys  int     `json:"keys"`
	ZipfS float64 `json:"zipf_s,omitempty"`

	WallSeconds float64 `json:"wall_seconds"`
	Requests    uint64  `json:"requests"`
	Errors      uint64  `json:"errors"`
	Throughput  float64 `json:"requests_per_sec"`

	CacheHits     uint64  `json:"cache_hits"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`

	Latency LatencySummary `json:"latency_ms"`

	// PerNode counts jobs by the node that executed them (JobStatus.Node),
	// the observed balance of the ring placement.
	PerNode map[string]uint64 `json:"per_node,omitempty"`
	// NodeStats carries each target's cluster counters scraped after the
	// run, so the report shows how much traffic was forwarded vs served
	// locally and how replication behaved.
	NodeStats []NodeLoadStats `json:"node_stats,omitempty"`
	// Stream carries the push-side measurements of the jobs qsmload
	// watched over SSE.
	Stream *StreamLoadStats `json:"stream,omitempty"`
}

// StreamLoadStats summarises a load run's push side: how promptly the
// first event arrived after submit (TTFE) and how evenly events flowed
// (gap between consecutive events on one watch), plus the transport-level
// resume accounting.
type StreamLoadStats struct {
	// Watched counts jobs observed via an event stream (cache hits complete
	// at submit and are never watched).
	Watched uint64 `json:"watched"`
	// Events counts data events received across all watches.
	Events uint64 `json:"events"`
	// Drops counts server-side drop markers observed (each resumed via
	// Last-Event-ID).
	Drops uint64 `json:"drops"`
	// Reconnects counts stream re-establishments.
	Reconnects uint64 `json:"reconnects"`
	// TTFE is the submit-to-first-event latency distribution.
	TTFE LatencySummary `json:"ttfe_ms"`
	// EventGap is the distribution of gaps between consecutive events
	// within one watch.
	EventGap LatencySummary `json:"event_gap_ms"`
}

// LatencySummary is an end-to-end latency distribution in milliseconds.
type LatencySummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
}

// NodeLoadStats is one target's cluster-counter snapshot at the end of a
// load run.
type NodeLoadStats struct {
	URL           string `json:"url"`
	Forwarded     uint64 `json:"requests_forwarded"`
	Local         uint64 `json:"requests_local"`
	FallbackLocal uint64 `json:"fallback_local"`
	ReplicatedOut uint64 `json:"replicated_out"`
	ReplicatedIn  uint64 `json:"replicated_in"`
	ReadRepairs   uint64 `json:"read_repairs"`
}

// Finish derives the rates and latency summary from the raw samples.
// latenciesMS is consumed (sorted in place).
func (r *LoadRecord) Finish(latenciesMS []float64) {
	if r.WallSeconds > 0 {
		r.Throughput = float64(r.Requests) / r.WallSeconds
	}
	if r.Requests > 0 {
		r.CacheHitRatio = float64(r.CacheHits) / float64(r.Requests)
	}
	r.Latency = SummarizeLatency(latenciesMS)
}

// SummarizeLatency reduces a sample set (milliseconds, consumed: sorted in
// place) to its distribution summary.
func SummarizeLatency(ms []float64) LatencySummary {
	s := LatencySummary{Count: uint64(len(ms))}
	if len(ms) == 0 {
		return s
	}
	sort.Float64s(ms)
	sum := 0.0
	for _, v := range ms {
		sum += v
	}
	s.Mean = sum / float64(len(ms))
	s.P50 = Percentile(ms, 50)
	s.P90 = Percentile(ms, 90)
	s.P99 = Percentile(ms, 99)
	s.P999 = Percentile(ms, 99.9)
	s.Max = ms[len(ms)-1]
	return s
}

// Percentile returns the p-th percentile (0 < p <= 100) of an ascending
// sorted sample by linear interpolation between closest ranks. An empty
// sample returns 0.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo < 0 {
		lo = 0
	}
	if hi >= len(sorted) {
		hi = len(sorted) - 1
	}
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// LoadFileName is the canonical load-report file name.
func LoadFileName(name string) string { return fmt.Sprintf("LOAD_%s.json", name) }

// WriteLoad persists a load report. If path ends in ".json" the record is
// written there; otherwise path is a directory (created if needed)
// receiving LOAD_<name>.json. It returns the file written.
func WriteLoad(path, name string, rec *LoadRecord) (string, error) {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	dir, file := path, LoadFileName(name)
	if strings.HasSuffix(path, ".json") {
		dir, file = filepath.Dir(path), filepath.Base(path)
	}
	return writeObsFile(dir, file, func(w io.Writer) error {
		_, werr := w.Write(append(data, '\n'))
		return werr
	})
}
