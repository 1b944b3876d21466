package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// BenchRecord captures one experiment's performance counters so the
// harness's own throughput is tracked from PR to PR alongside the paper's
// tables. Counters cover the whole experiment: every simulation of the
// sweep, on every worker.
type BenchRecord struct {
	ID          string `json:"id"`
	Title       string `json:"title,omitempty"`
	Seed        int64  `json:"seed"`
	Runs        int    `json:"runs"`
	Quick       bool   `json:"quick"`
	Parallelism int    `json:"parallelism"`

	WallSeconds  float64 `json:"wall_seconds"`
	SimEvents    uint64  `json:"sim_events"`
	EventsPerSec float64 `json:"events_per_sec"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	Allocs       uint64  `json:"allocs"`

	// Extra carries driver-specific named values (the runner driver's
	// schedule-model makespans and the stealing pool's measured wall times
	// and steal counts). Keys prefixed
	// "model_" are deterministic functions of the workload and are gated
	// exactly by scripts/perfcheck.py; "measured_" keys are wall-clock
	// observations recorded for the trajectory but not gated.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Finish derives the throughput rate from the raw counters.
func (r *BenchRecord) Finish() {
	if r.WallSeconds > 0 {
		r.EventsPerSec = float64(r.SimEvents) / r.WallSeconds
	}
}

// BenchFileName is the canonical per-experiment benchmark file name.
func BenchFileName(id string) string { return fmt.Sprintf("BENCH_%s.json", id) }

// WriteBench persists benchmark records. If path ends in ".json" every
// record goes into that one file as a JSON array; otherwise path is taken
// as a directory (created if needed) receiving one BENCH_<id>.json per
// record. It returns the files written.
func WriteBench(path string, recs []BenchRecord) ([]string, error) {
	if strings.HasSuffix(path, ".json") {
		data, err := json.MarshalIndent(recs, "", "  ")
		if err != nil {
			return nil, err
		}
		if _, err := writeObsFile(filepath.Dir(path), filepath.Base(path), func(w io.Writer) error {
			_, werr := w.Write(append(data, '\n'))
			return werr
		}); err != nil {
			return nil, err
		}
		return []string{path}, nil
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, err
	}
	var files []string
	for _, r := range recs {
		data, err := json.MarshalIndent(r, "", "  ")
		if err != nil {
			return nil, err
		}
		f, err := writeObsFile(path, BenchFileName(r.ID), func(w io.Writer) error {
			_, werr := w.Write(append(data, '\n'))
			return werr
		})
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}
