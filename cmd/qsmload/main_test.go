package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/report"
	"repro/internal/service"
	"repro/internal/store"
)

// TestLoadRun drives an in-process qsmd for about a second. One worker
// waits for each job before it submits the next, so a repeated key is a
// cache hit at submit and every other request is a job watched over its
// event stream.
func TestLoadRun(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := service.New(service.Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Error(err)
		}
	})
	var out, errb bytes.Buffer
	err = run([]string{"-targets", srv.URL, "-exp", "fig7", "-runs", "1", "-keys", "64",
		"-workers", "1", "-duration", "1s"}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, errb.String())
	}
	var rec report.LoadRecord
	if err := json.Unmarshal(out.Bytes(), &rec); err != nil {
		t.Fatalf("report: %v\n%s", err, out.String())
	}
	if rec.Requests == 0 || rec.Errors != 0 {
		t.Fatalf("requests %d, errors %d; want some requests and no errors", rec.Requests, rec.Errors)
	}
	if rec.Stream == nil {
		t.Fatal("report has no stream section")
	}
	t.Logf("%d requests, %d cache hits, %d watched", rec.Requests, rec.CacheHits, rec.Stream.Watched)
	if want := rec.Requests - rec.CacheHits; rec.Stream.Watched != want {
		t.Errorf("stream.watched = %d, want the %d requests that missed the cache", rec.Stream.Watched, want)
	}
}

// TestRemovedWaitFlags: jobs are always watched over the event stream, so
// the flags that chose between polling and streaming are gone.
func TestRemovedWaitFlags(t *testing.T) {
	for _, args := range [][]string{{"-poll", "20ms"}, {"-stream"}} {
		var out, errb bytes.Buffer
		if code := cli.ExitCode(run(args, &out, &errb)); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
