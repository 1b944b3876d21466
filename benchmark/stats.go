package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/stats"
)

// percentile returns the closest-rank p-th percentile (0 <= p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it, so 0
// is the minimum and 100 the maximum. It never interpolates, so every
// reported latency is one that was observed. An empty sample reads 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps a product that should be whole (90% of 10) from
	// rounding up to the next rank.
	rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	return s[min(max(rank, 1), len(s))-1]
}

// median is the mean of the two middle samples (the middle one when the
// count is odd); used where the samples are themselves summaries (set-up
// rounds, probe batches, runs of a self-check set). An empty sample reads 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Summarize(xs).Median
}

// segments cuts a window into segments of seg completed units each (by
// completion order) and returns, per segment, its rate (seg over the time
// between its last completion and the previous segment's) and the median
// latency of its units. lat[i] and done[i] are unit i's wall time and its
// completion time since the window start, in any order; a trailing partial
// segment is ignored.
func segments(lat []float64, done []time.Duration, seg int) (rates, p50s []float64) {
	if seg < 1 {
		return nil, nil
	}
	order := make([]int, len(done))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return done[order[a]] < done[order[b]] })
	prev := time.Duration(0)
	for end := seg; end <= len(order); end += seg {
		last := done[order[end-1]]
		if dt := last - prev; dt > 0 {
			rates = append(rates, float64(seg)/dt.Seconds())
		}
		prev = last
		in := make([]float64, 0, seg)
		for _, i := range order[end-seg : end] {
			in = append(in, lat[i])
		}
		p50s = append(p50s, percentile(in, 50))
	}
	return rates, p50s
}

// The end-to-end estimators. Noise on a shared host is one-sided: a busy
// neighbour slows units down for seconds at a time and nothing speeds them
// up. So both timing metrics are read off the window's quietest segment:
// work_per_s is the highest segment rate, lat_p50_ms the lowest of the
// segments' median latencies. A change to the program moves every segment,
// the quietest included; a neighbour's burst moves the metrics only when it
// leaves no segment alone. (Measured on six runs of each kind during a busy
// spell, max-min over median: the median over 40 segments 9-28%, their tenth
// percentile 4-16%, the best segment 2-9%.)
func workPerS(rates []float64) float64 { return percentile(rates, 100) }
func latP50MS(p50s []float64) float64  { return percentile(p50s, 0) }

// keyIndex maps (seed, op) to one of n keys. It is a pure function of its
// arguments, so two commits, two clients and the traced replay all see the
// same key for the same op.
func keyIndex(seed int64, op, n int) int {
	return int(stats.Mix64(uint64(seed), uint64(op)) % uint64(n))
}
