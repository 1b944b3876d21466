package membank

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// goAccessor is the goroutine form of a processor: n synchronous accesses,
// each a ReqOverhead advance, the reservations, and an advance to the reply.
// It is the reference semantics the stepped form must reproduce exactly.
func (b *bench) goAccessor(pick pickFn, pid int) func(*sim.Proc) {
	return func(p *sim.Proc) {
		rng := p.Rand()
		start := p.Now()
		for a := 0; a < b.n; a++ {
			bank := pick(pid, rng)
			t0 := p.Now()
			p.Advance(b.cfg.ReqOverhead)
			done := b.access(p.Now(), bank)
			p.Advance(done - p.Now())
			b.bo.cycles.Observe(float64(p.Now() - t0))
		}
		b.totals[pid] = p.Now() - start
	}
}

// runGo is bench.run with goroutine processors.
func (b *bench) runGo(pick pickFn, seed int64) Result {
	for pid := 0; pid < b.cfg.Procs; pid++ {
		b.e.SpawnSeeded(fmt.Sprintf("proc%d", pid), procSeed(seed, pid), b.goAccessor(pick, pid))
	}
	return b.finish()
}

// TestSteppedMatchesGoroutine pins the stepped accessor against the
// goroutine reference semantics: identical Results and identical metrics
// (every counter, histogram bucket, and trace span) for every architecture
// and pattern, plus the hot-fraction path.
func TestSteppedMatchesGoroutine(t *testing.T) {
	const n, seed = 80, 7
	metrics := func(t *testing.T, run func(*obs.Recorder) Result) (Result, []byte) {
		sink := obs.NewSink(obs.Config{Metrics: true})
		r := run(sink.Recorder(sink.Reserve(1)))
		var buf bytes.Buffer
		if err := sink.Merged().WriteMetricsJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return r, buf.Bytes()
	}
	for _, cfg := range AllConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			for _, pat := range []Pattern{Random, Conflict, NoConflict} {
				rStep, mStep := metrics(t, func(rec *obs.Recorder) Result {
					return RunObserved(cfg, pat, n, seed, rec)
				})
				rGo, mGo := metrics(t, func(rec *obs.Recorder) Result {
					return newBench(cfg, pat, n, rec).runGo(patternPick(cfg, pat), seed)
				})
				if rStep != rGo {
					t.Errorf("%s: stepped result %+v != goroutine result %+v", pat, rStep, rGo)
				}
				if !bytes.Equal(mStep, mGo) {
					t.Errorf("%s: stepped metrics diverge from goroutine metrics (%d vs %d bytes)",
						pat, len(mStep), len(mGo))
				}
			}
			hStep := RunHotFraction(cfg, 0.3, n, seed)
			hGo := newBench(cfg, Random, n, nil).runGo(hotPick(cfg, 0.3), seed)
			if hStep != hGo {
				t.Errorf("hot-fraction stepped %+v != goroutine %+v", hStep, hGo)
			}
		})
	}
}
