package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// newBodyServer returns the handler of a fresh scheduler that is drained
// when the test ends.
func newBodyServer(t *testing.T) http.Handler {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, Fingerprint: "test-fp"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s.Handler()
}

// malformedBodies are submit bodies the API rejects with a 400, and the
// error each one answers.
var malformedBodies = []struct {
	path, body, err string
}{
	{"/v1/jobs", ``, `EOF`},
	{"/v1/jobs", `{not json`, `invalid character 'n' looking for beginning of object key string`},
	{"/v1/jobs", `{"experiment":"fig7","bogus":1}`, `json: unknown field \"bogus\"`},
	{"/v1/jobs", `{"experiment":"fig7","seed":"x"}`, `json: cannot unmarshal string into Go struct field SubmitRequest.seed of type int64`},
	{"/v1/jobs", `{"experiment":"no-such"`, `unexpected EOF`},
	{"/v1/jobs:batch", ``, `EOF`},
	{"/v1/jobs:batch", `{"jobs":[{"experiment":"fig7","bogus":1}]}`, `json: unknown field \"bogus\"`},
	{"/v1/jobs:batch", `{"jobs":[]}`, `service: batch names no jobs`},
	{"/v1/jobs:batch", `{"jobs":[` + strings.Repeat(`{"experiment":"fig7"},`, 256) + `{"experiment":"fig7"}]}`, `service: batch exceeds 256 jobs`},
}

// TestPinMalformedBodies pins the 400 and the error body each malformed
// submit gets.
func TestPinMalformedBodies(t *testing.T) {
	h := newBodyServer(t)
	for _, c := range malformedBodies {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		want := fmt.Sprintf("{\n  \"error\": \"%s\"\n}\n", c.err)
		if rw.Code != http.StatusBadRequest || rw.Body.String() != want {
			t.Errorf("POST %s %.40q = %d %q, want 400 %q", c.path, c.body, rw.Code, rw.Body.String(), want)
		}
	}
}

// hugeBody is a 64 MB submit body, made as it is read, that counts the
// bytes read from it: one JSON string far longer than any cap.
type hugeBody struct{ read int }

func (b *hugeBody) Read(p []byte) (int, error) {
	const size = 64 << 20
	if b.read >= size {
		return 0, io.EOF
	}
	n := min(len(p), size-b.read)
	for i := range p[:n] {
		p[i] = 'a'
	}
	if b.read == 0 {
		copy(p[:n], `{"experiment":"`)
	}
	b.read += n
	return n, nil
}

// TestSubmitBodyCap: a 64 MB body gets a 413 on both submit routes, after
// no more than the cap and one read buffer have been read from it.
func TestSubmitBodyCap(t *testing.T) {
	h := newBodyServer(t)
	for _, path := range []string{"/v1/jobs", "/v1/jobs:batch"} {
		body := &hugeBody{}
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, path, body))
		if want := "{\n  \"error\": \"http: request body too large\"\n}\n"; rw.Code != http.StatusRequestEntityTooLarge || rw.Body.String() != want {
			t.Errorf("POST %s with a 64 MB body = %d %q, want 413 %q", path, rw.Code, rw.Body.String(), want)
		}
		if body.read > maxBodyBytes+4096 {
			t.Errorf("POST %s read %d body bytes, want at most the %d-byte cap and one 4 KB buffer", path, body.read, maxBodyBytes)
		}
	}
}
