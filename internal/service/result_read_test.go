package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
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

// TestClientResultAllocs is the client's half of the serving claim: a
// result read through Client.Result makes as many allocations for the
// 389 KB fig7 entry as for the 10.8 KB fig1 one, and its bytes are about the
// body, read into one exact-size slice, plus the metrics copy the decoded
// entry owns. The measurement covers the whole process, so the in-process
// server's handler is in it too, and so is whatever other goroutines
// allocate meanwhile: each size keeps the least of five windows.
func TestClientResultAllocs(t *testing.T) {
	type read struct {
		allocs, bytes float64
		body, metrics int
	}
	measure := func(exp string) read {
		h, path := cachedResult(t, exp)
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		c := &service.Client{BaseURL: srv.URL, HTTP: srv.Client()}
		key := strings.TrimPrefix(path, "/v1/results/")
		var r read
		get := func() {
			e, err := c.Result(context.Background(), key)
			if err != nil {
				t.Fatal(err)
			}
			r.metrics = len(e.Metrics)
		}
		get() // warm the connection and encoding/json's type cache
		// No collection runs inside the window: each one empties the
		// sync.Pools net/http draws from, and refilling them would count
		// against the larger body, which triggers collections more often.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		const windows, rounds = 5, 20
		r.allocs, r.bytes = math.Inf(1), math.Inf(1)
		for w := 0; w < windows; w++ {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < rounds; i++ {
				get()
			}
			runtime.ReadMemStats(&after)
			r.allocs = min(r.allocs, float64(after.Mallocs-before.Mallocs)/rounds)
			r.bytes = min(r.bytes, float64(after.TotalAlloc-before.TotalAlloc)/rounds)
		}
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		r.body = int(resp.ContentLength)
		return r
	}
	small, large := measure("fig1"), measure("fig7")
	t.Logf("Client.Result: fig1 %.1f allocs, %.0f B for a %d B body (%d B metrics); fig7 %.1f allocs, %.0f B for a %d B body (%d B metrics)",
		small.allocs, small.bytes, small.body, small.metrics, large.allocs, large.bytes, large.body, large.metrics)
	if small.body <= 0 || large.body < 20*small.body {
		t.Fatalf("bodies are %d and %d bytes; the comparison needs them far apart, with a Content-Length", small.body, large.body)
	}
	// Measurements of one size differ by under one allocation, also under
	// -race. Reading through io.ReadAll's growing buffer and decoding with
	// json.Unmarshal made 14 more for fig7 (118.5 against 104.2) and 2.4 MB
	// for its body.
	if d := large.allocs - small.allocs; d > 2 || d < -2 {
		t.Errorf("Client.Result makes %.1f allocations for fig1 but %.1f for fig7; want the same", small.allocs, large.allocs)
	}
	for _, r := range []read{small, large} {
		if limit := float64(r.body+r.metrics) + 32<<10; r.bytes > limit {
			t.Errorf("Client.Result of a %d B body with %d B of metrics allocates %.0f B; want at most the two and 32 KB",
				r.body, r.metrics, r.bytes)
		}
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
