package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/obs"
)

// TestMetricsJSONDigest pins the bytes of the METRICS_<id>.json snapshot
// (obs.Recorder.WriteMetricsJSON of the merged sink) for three drivers in
// quick mode, one run, seed 1: its SHA-256 must not move when the writer
// changes. fig7 is the membank histogram blob the service stores, fig2 and
// ext1 cover the qsmlib, msg and sim series.
func TestMetricsJSONDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps in -short mode")
	}
	want := map[string]string{
		"fig7": "c84d71c964914cd021b48bf265d023261518df20edacb615d6b5118c8537b945",
		"fig2": "3e42f0d0037589c4d3dc70850acc7ca3a63752f1e7ce035b9d140269a964bc9e",
		"ext1": "0ed9f5e4981e11748547754aa8eb9b39e6077128b243e957a58ab8cce098be90",
	}
	for id, sum := range want {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			sink := obs.NewSink(obs.Config{Metrics: true})
			if _, err := Run(id, Options{Seed: 1, Runs: 1, Quick: true, Obs: sink}); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := sink.Merged().WriteMetricsJSON(&buf); err != nil {
				t.Fatal(err)
			}
			h := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(h[:]); got != sum {
				t.Errorf("%s: METRICS JSON (%d bytes) has SHA-256 %s, want %s", id, buf.Len(), got, sum)
			}
		})
	}
}

// TestObservedFig7Allocs: collecting metrics costs a fig7 run at most twice
// a plain run's allocations. Each bank access observes a histogram and two
// counters, which allocate nothing; only tracing builds per-access spans.
func TestObservedFig7Allocs(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps in -short mode")
	}
	run := func(sink *obs.Sink) {
		if _, err := Run("fig7", Options{Seed: 1, Runs: 2, Quick: true, Parallelism: 1, Obs: sink}); err != nil {
			t.Fatal(err)
		}
	}
	plain := testing.AllocsPerRun(3, func() { run(nil) })
	observed := testing.AllocsPerRun(3, func() { run(obs.NewSink(obs.Config{Metrics: true})) })
	t.Logf("fig7 quick, runs 2: %.0f allocs plain, %.0f with metrics", plain, observed)
	if observed > 2*plain {
		t.Errorf("fig7 with metrics: %.0f allocs per run, want at most 2x the plain run's %.0f", observed, plain)
	}
}
