package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/store"
)

var (
	fuzzOnce    sync.Once
	fuzzHandler http.Handler
	fuzzDir     string // the shared scheduler's store, removed by TestMain
)

// TestMain removes the shared fuzz scheduler's store directory once the
// package's tests have run, so a plain go test leaves nothing in the temp
// directory. Under -fuzz each worker process builds its own scheduler and
// removes its directory when the worker exits normally; a worker the fuzz
// engine kills (a crash, a hang) leaves its qsm-fuzz-* directory behind.
func TestMain(m *testing.M) {
	code := m.Run()
	if fuzzDir != "" {
		os.RemoveAll(fuzzDir)
	}
	os.Exit(code)
}

// fuzzServer lazily builds one scheduler shared by every fuzz execution.
// It is never drained: it lives as long as the test process.
func fuzzServer(f *testing.F) http.Handler {
	fuzzOnce.Do(func() {
		dir, err := os.MkdirTemp("", "qsm-fuzz-*")
		if err != nil {
			f.Fatal(err)
		}
		fuzzDir = dir
		st, err := store.Open(dir, 0)
		if err != nil {
			f.Fatal(err)
		}
		s, err := service.New(service.Config{Store: st, Workers: 1, Fingerprint: "fuzz"})
		if err != nil {
			f.Fatal(err)
		}
		fuzzHandler = s.Handler()
	})
	return fuzzHandler
}

// buildRequest constructs the test request, converting httptest.NewRequest
// panics on unparseable request lines (e.g. embedded spaces) into nil. Only
// construction runs under the recover; handler panics stay fatal.
func buildRequest(method, target string, body []byte) (req *http.Request) {
	defer func() { recover() }()
	return httptest.NewRequest(method, target, bytes.NewReader(body))
}

// FuzzHandlers pins the HTTP surface's robustness: arbitrary methods,
// paths, and bodies must never panic the handler and never produce a 5xx —
// malformed input is the client's fault (4xx), not a server error.
func FuzzHandlers(f *testing.F) {
	handler := fuzzServer(f)
	f.Add(uint8(1), "/v1/jobs", []byte(`{"experiment":"nope"}`))
	f.Add(uint8(1), "/v1/jobs", []byte(`{not json`))
	f.Add(uint8(1), "/v1/jobs", []byte(`{"experiment":"fig7","bogus":1}`))
	f.Add(uint8(0), "/v1/jobs/zzz", []byte{})
	f.Add(uint8(2), "/v1/jobs/../../etc", []byte{})
	f.Add(uint8(0), "/v1/results/deadbeef", []byte{})
	f.Add(uint8(0), "/v1/results/"+strings.Repeat("zz", 32), []byte{})
	f.Add(uint8(0), "/metricsz", []byte{})
	f.Add(uint8(3), "/healthz", []byte{})
	f.Fuzz(func(t *testing.T, m uint8, target string, body []byte) {
		methods := []string{
			http.MethodGet, http.MethodPost, http.MethodDelete,
			http.MethodPut, http.MethodHead,
		}
		method := methods[int(m)%len(methods)]
		u, err := url.ParseRequestURI(target)
		if err != nil || u.Scheme != "" || u.Host != "" || !strings.HasPrefix(target, "/") {
			t.Skip("not a request path")
		}
		if method == http.MethodPost {
			// Bodies that submit a real registered experiment would run
			// actual simulations; robustness fuzzing only needs the
			// malformed and unknown-experiment paths.
			var sr service.SubmitRequest
			if json.Unmarshal(body, &sr) == nil && experiments.Known(sr.Experiment) {
				t.Skip("well-formed real submission")
			}
		}
		req := buildRequest(method, target, body)
		if req == nil {
			t.Skip("target not expressible as a request line")
		}
		if len(body) > 0 {
			req.Header.Set("Content-Type", "application/json")
		}
		rw := httptest.NewRecorder()
		handler.ServeHTTP(rw, req)
		if rw.Code >= 500 {
			t.Fatalf("%s %q (body %q) = %d %s; handlers must map bad input to 4xx",
				method, target, body, rw.Code, rw.Body.String())
		}
	})
}
