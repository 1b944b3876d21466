package service_test

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/service"
	"repro/internal/store"
)

// promValue returns the value of the unlabelled series name in a
// Prometheus text exposition, or "" when it is absent.
func promValue(text, name string) string {
	m := regexp.MustCompile(`(?m)^` + name + ` (\S+)$`).FindStringSubmatch(text)
	if m == nil {
		return ""
	}
	return m[1]
}

// TestMetricsBalanceUnderScrapes: eight goroutines submit cached keys while
// a ninth scrapes /metricsz and /statusz. Every submission is counted once
// as submitted and once as a hit, whatever the scrapes interleave with, and
// at rest the inflight figure is the running job count.
func TestMetricsBalanceUnderScrapes(t *testing.T) {
	const (
		fp         = "balance-fp"
		submitters = 8
		perWorker  = 1000
	)
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]service.Request, 32)
	for i := range reqs {
		opts := service.SubmitRequest{Seed: int64(i + 1), Runs: 1, Quick: true}.Key()
		reqs[i] = service.Request{Experiment: "fig7", Options: opts}
		e := &store.Entry{Key: store.ResultKey("fig7", opts, fp), Experiment: "fig7", Options: opts, Fingerprint: fp}
		if err := st.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	s := newSched(t, service.Config{Store: st, Fingerprint: fp, StateHook: func(service.JobStatus) {}})
	h := s.Handler()

	stop := make(chan struct{})
	scrapes := make(chan int)
	go func() {
		n := 0
		defer func() { scrapes <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/metricsz", "/statusz"} {
				rr := httptest.NewRecorder()
				h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
				if rr.Code != http.StatusOK {
					t.Errorf("GET %s: HTTP %d", path, rr.Code)
					return
				}
			}
			n++
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				js, err := s.Submit(reqs[(g+i)%len(reqs)])
				if err != nil || !js.Cached {
					t.Errorf("submit: cached %v, error %v", js.Cached, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	if n := <-scrapes; n == 0 {
		t.Error("no scrape completed while submitting")
	}

	var b strings.Builder
	if err := s.WriteMetricsText(&b); err != nil {
		t.Fatal(err)
	}
	submitted := promValue(b.String(), "qsm_service_jobs_submitted_total")
	hits := promValue(b.String(), "qsm_service_cache_hits_total")
	if want := strconv.Itoa(submitters * perWorker); submitted != want || hits != want {
		t.Errorf("jobs_submitted_total %s, cache_hits_total %s; want both %s", submitted, hits, want)
	}
	status := s.Status()
	if status.Scheduler.Inflight != int64(status.Jobs.Running) {
		t.Errorf("inflight %d, running jobs %d", status.Scheduler.Inflight, status.Jobs.Running)
	}
}

// TestInflightIsRunningCount: a job holding the worker is the one inflight
// job in Status and on /metricsz, and once it is done inflight is zero
// again while inflight_jobs_max keeps the one.
func TestInflightIsRunningCount(t *testing.T) {
	started, release := resetBlock()
	s := newSched(t, service.Config{Workers: 1})
	js := submit(t, s, "test-block", 1)
	<-started
	if st := s.Status(); st.Scheduler.Inflight != 1 || st.Jobs.Running != 1 {
		t.Errorf("while running: inflight %d, running jobs %d; want 1 and 1", st.Scheduler.Inflight, st.Jobs.Running)
	}
	close(release)
	waitJob(t, s, js.ID)
	var b strings.Builder
	if err := s.WriteMetricsText(&b); err != nil {
		t.Fatal(err)
	}
	if v, max := promValue(b.String(), "qsm_service_inflight_jobs"), promValue(b.String(), "qsm_service_inflight_jobs_max"); v != "0" || max != "1" {
		t.Errorf("after the job: inflight_jobs %s, inflight_jobs_max %s; want 0 and 1", v, max)
	}
}
