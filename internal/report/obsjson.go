package report

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/jsonbytes"
	"repro/internal/obs"
)

// MetricsFileName is the canonical per-experiment metrics file name, written
// next to BENCH_<id>.json.
func MetricsFileName(id string) string { return fmt.Sprintf("METRICS_%s.json", id) }

// TraceFileName is the canonical per-experiment Chrome trace file name.
func TraceFileName(id string) string { return fmt.Sprintf("TRACE_%s.json", id) }

// WriteMetrics writes an experiment's aggregated metrics registry to
// dir/METRICS_<id>.json, creating dir if needed, and returns the path.
func WriteMetrics(dir, id string, rec *obs.Recorder) (string, error) {
	return writeObsFile(dir, MetricsFileName(id), rec.WriteMetricsJSON)
}

// WriteMetricsRaw writes METRICS JSON held as bytes — as a result store
// entry carries it, compact or indented — to dir/METRICS_<id>.json in the
// form WriteMetrics writes, creating dir if needed, and returns the path.
// data must be valid JSON.
func WriteMetricsRaw(dir, id string, data []byte) (string, error) {
	return writeObsFile(dir, MetricsFileName(id), func(w io.Writer) error {
		_, err := w.Write(jsonbytes.Indent(jsonbytes.AppendCompact(nil, data)))
		return err
	})
}

// WriteTrace writes an experiment's merged span trace to dir/TRACE_<id>.json
// in Chrome trace-event format (loadable in Perfetto or chrome://tracing),
// creating dir if needed, and returns the path.
func WriteTrace(dir, id string, rec *obs.Recorder) (string, error) {
	return writeObsFile(dir, TraceFileName(id), rec.WriteTraceJSON)
}

// writeObsFile streams write into dir/name via a same-directory temp file
// and rename, so a failed or interrupted write leaves no partial file
// behind and readers never observe a half-written one.
func writeObsFile(dir, name string, write func(w io.Writer) error) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return "", err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return "", err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return path, nil
}
