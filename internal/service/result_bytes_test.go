package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/service"
	"repro/internal/store"
)

// encodeEntry is the wire form of a result: what json.Encoder with a
// two-space indent writes for the decoded entry, trailing newline included.
func encodeEntry(t *testing.T, e *store.Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(e); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fetchResult GETs /v1/results/{key} and returns the raw body after checking
// the status and content type every result read must carry.
func fetchResult(t *testing.T, base, key string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result %s = HTTP %d: %s", store.ShortKey(key), resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("result Content-Type = %q, want application/json", ct)
	}
	return body
}

// checkCanonical asserts body is byte for byte the indented encoding of the
// entry it decodes to, and returns that entry.
func checkCanonical(t *testing.T, what string, body []byte) *store.Entry {
	t.Helper()
	var e store.Entry
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("%s: body is not an entry: %v", what, err)
	}
	if want := encodeEntry(t, &e); !bytes.Equal(body, want) {
		t.Fatalf("%s: body (%d bytes) is not the canonical encoding of its entry (%d bytes)", what, len(body), len(want))
	}
	return &e
}

// runToResult submits req, waits for the job and returns its result key.
func runToResult(t *testing.T, c *service.Client, req service.SubmitRequest) string {
	t.Helper()
	ctx := context.Background()
	js, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if js, err = c.Wait(ctx, js.ID, 5*time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	if js.State != service.StateDone {
		t.Fatalf("job %s = %s (%s)", req.Experiment, js.State, js.Error)
	}
	return js.ResultKey
}

// TestResultBodyBytes pins the bytes GET /v1/results/{key} serves for a small
// (fig1) and a large (fig7 with its metrics blob) entry on every way an entry
// reaches the memory tier: freshly put, promoted from disk by a reopened
// store, cached memory-only after a failed write, a legacy file without a
// checksum, and a file whose whitespace differs from the canonical form.
func TestResultBodyBytes(t *testing.T) {
	for _, exp := range []string{"fig1", "fig7"} {
		t.Run(exp, func(t *testing.T) {
			req := service.SubmitRequest{Experiment: exp, Seed: 3, Runs: 1, Quick: true}
			dir := t.TempDir()
			st, err := store.Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, c := newServer(t, service.Config{Store: st, CollectMetrics: true})
			key := runToResult(t, c, req)

			// (a) memory hit, twice: the second read must not differ from the first.
			mem := fetchResult(t, c.BaseURL, key)
			e := checkCanonical(t, "memory hit", mem)
			if e.Key != key || e.Experiment != exp || e.Tables == "" || len(e.Metrics) == 0 {
				t.Fatalf("entry incomplete: key %s experiment %q tables %d B metrics %d B",
					store.ShortKey(e.Key), e.Experiment, len(e.Tables), len(e.Metrics))
			}
			if e.Checksum == "" || !e.ChecksumOK() {
				t.Errorf("served entry checksum %q does not verify", e.Checksum)
			}
			if again := fetchResult(t, c.BaseURL, key); !bytes.Equal(again, mem) {
				t.Error("second memory hit served different bytes")
			}
			file, err := os.ReadFile(st.Path(key))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(file, mem) {
				t.Error("disk file differs from the served body")
			}

			// (b) disk hit: a fresh store over the same directory.
			st2, err := store.Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			_, c2 := newServer(t, service.Config{Store: st2})
			if disk := fetchResult(t, c2.BaseURL, key); !bytes.Equal(disk, mem) {
				t.Error("disk hit served different bytes from the memory hit")
			}
			if promoted := fetchResult(t, c2.BaseURL, key); !bytes.Equal(promoted, mem) {
				t.Error("promoted entry served different bytes from the memory hit")
			}

			// (c) write-degraded: the put fails, the entry is cached in memory only.
			inj := faults.New(faults.Config{Seed: 1, Rules: map[faults.Class]faults.Rule{
				faults.StoreWrite: {Every: 1, Max: 1},
			}})
			st3, err := store.OpenConfig(store.Config{Dir: t.TempDir(), Faults: inj})
			if err != nil {
				t.Fatal(err)
			}
			_, c3 := newServer(t, service.Config{Store: st3, CollectMetrics: true})
			if k := runToResult(t, c3, req); k != key {
				t.Fatalf("degraded run keyed %s, want %s", store.ShortKey(k), store.ShortKey(key))
			}
			if _, err := os.Stat(st3.Path(key)); err == nil {
				t.Fatal("write fault did not fire: entry is on disk")
			}
			de := checkCanonical(t, "write-degraded", fetchResult(t, c3.BaseURL, key))
			if de.Tables != e.Tables || de.Checksum == "" || !de.ChecksumOK() {
				t.Errorf("write-degraded entry: tables equal %v, checksum %q", de.Tables == e.Tables, de.Checksum)
			}

			// (d) legacy file: no checksum field, served without one.
			legacy := *e
			legacy.Checksum = ""
			ldata, err := json.MarshalIndent(&legacy, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			st4, err := store.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(st4.Path(key), append(ldata, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			_, c4 := newServer(t, service.Config{Store: st4})
			want := encodeEntry(t, &legacy)
			for _, what := range []string{"legacy disk hit", "legacy promoted"} {
				if got := fetchResult(t, c4.BaseURL, key); !bytes.Equal(got, want) {
					t.Errorf("%s: body is not the canonical encoding of the checksum-less entry", what)
				}
			}

			// (e) whitespace-perturbed file: the checksum covers the value, so the
			// compact form verifies — and must be served canonical, not raw.
			var compact bytes.Buffer
			if err := json.Compact(&compact, mem); err != nil {
				t.Fatal(err)
			}
			st5, err := store.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(st5.Path(key), compact.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			_, c5 := newServer(t, service.Config{Store: st5})
			for _, what := range []string{"perturbed disk hit", "perturbed promoted"} {
				if got := fetchResult(t, c5.BaseURL, key); !bytes.Equal(got, mem) {
					t.Errorf("%s: served %d bytes, want the %d canonical ones", what, len(got), len(mem))
				}
			}
			if st5.Metric("entries_quarantined") != 0 {
				t.Error("checksum-valid perturbed file was quarantined")
			}
		})
	}
}
