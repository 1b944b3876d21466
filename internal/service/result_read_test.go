package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

// cachedResult computes exp (quick, one run, metrics collected) on a fresh
// scheduler and returns its handler and the result's URL path: a ~5 KB body
// for fig1, ~390 KB for fig7.
func cachedResult(t testing.TB, exp string) (http.Handler, string) {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan service.JobStatus, 1) // one job, one terminal state
	s, err := service.New(service.Config{Store: st, Fingerprint: "test-fp", CollectMetrics: true,
		StateHook: func(js service.JobStatus) {
			if terminal(js.State) {
				done <- js
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	req := service.SubmitRequest{Experiment: exp, Seed: 3, Runs: 1, Quick: true}
	if _, err := s.Submit(service.Request{Experiment: req.Experiment, Options: req.Key()}); err != nil {
		t.Fatal(err)
	}
	js := <-done
	if js.State != service.StateDone {
		t.Fatalf("computing %s: %s (%s)", exp, js.State, js.Error)
	}
	return s.Handler(), "/v1/results/" + js.ResultKey
}

// discardWriter is a ResponseWriter that keeps nothing, so a measurement
// sees only what the handler itself allocates.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// TestResultReadAllocsIndependentOfSize is the machine-independent form of
// the serving claim: a cached result read writes the stored bytes, so the
// handler allocates the same for a 390 KB body as for a 5 KB one.
func TestResultReadAllocsIndependentOfSize(t *testing.T) {
	perRead := func(exp string) (bytes float64, body int) {
		h, path := cachedResult(t, exp)
		read := func() int {
			w := &discardWriter{h: http.Header{}}
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
			if w.code != 0 && w.code != http.StatusOK {
				t.Fatalf("GET %s = HTTP %d", path, w.code)
			}
			return w.n
		}
		body = read() // warm the mux and pools
		const rounds = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			read()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / rounds, body
	}
	small, smallBody := perRead("fig1")
	large, largeBody := perRead("fig7")
	if largeBody < 20*smallBody {
		t.Fatalf("bodies are %d and %d bytes; the comparison needs them far apart", smallBody, largeBody)
	}
	t.Logf("handler allocates %.0f B for a %d B body, %.0f B for a %d B body", small, smallBody, large, largeBody)
	if diff := large - small; diff > 512 || diff < -512 {
		t.Errorf("a cached result read allocates %.0f B for a %d B body but %.0f B for a %d B body; want the same",
			small, smallBody, large, largeBody)
	}
}

// BenchmarkResultHandler times GET /v1/results/{key} for a resident entry,
// handler only: ServeHTTP into a recorder, no socket.
func BenchmarkResultHandler(b *testing.B) {
	for _, exp := range []string{"fig1", "fig7"} {
		b.Run(exp, func(b *testing.B) {
			h, path := cachedResult(b, exp)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
				if w.Code != http.StatusOK {
					b.Fatalf("GET %s = HTTP %d", path, w.Code)
				}
			}
		})
	}
}

// TestStoreMemBytesExposed checks the memory tier's size reaches both
// operator surfaces: /statusz's store section and a /metricsz gauge, each
// equal to the one resident result's body length.
func TestStoreMemBytesExposed(t *testing.T) {
	h, path := cachedResult(t, "fig1")
	get := func(p string) string {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, p, nil))
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s = HTTP %d", p, w.Code)
		}
		return w.Body.String()
	}
	body := len(get(path))
	var st service.Status
	if err := json.Unmarshal([]byte(get("/statusz")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Store.MemEntries != 1 || st.Store.MemBytes != int64(body) {
		t.Errorf("/statusz store = %d entries, %d bytes; want 1 entry of %d bytes", st.Store.MemEntries, st.Store.MemBytes, body)
	}
	if want := fmt.Sprintf("qsm_store_mem_bytes %d\n", body); !strings.Contains(get("/metricsz"), want) {
		t.Errorf("/metricsz lacks %q", want)
	}
}
