package jsonbytes_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/jsonbytes"
	"repro/internal/obs"
	"repro/internal/store"
)

const space = " \t\r\n"

// valid is json.Valid through SkipValue: one value between optional
// whitespace.
func valid(src []byte) bool {
	end, ok := jsonbytes.SkipValue(src, jsonbytes.SkipSpace(src, 0), 0)
	return ok && jsonbytes.SkipSpace(src, end) == len(src)
}

// realWire returns the wire encoding of the entry the service stores for
// exp (quick, seed 3, one run, metrics collected), the entries
// TestRealEntryEncoding in internal/store checks: 10.8 KB for fig1, 389 KB
// for fig7.
func realWire(tb testing.TB, exp string) []byte {
	tb.Helper()
	key := experiments.OptionsKey{Seed: 3, Runs: 1, Quick: true}
	opt := key.Options()
	opt.Parallelism = 1
	sink := obs.NewSink(obs.Config{Metrics: true})
	opt.Obs = sink
	res, err := experiments.Run(exp, opt)
	if err != nil {
		tb.Fatal(err)
	}
	metrics, err := sink.Merged().AppendMetricsJSON(nil)
	if err != nil {
		tb.Fatal(err)
	}
	st, err := store.Open(tb.TempDir(), 0)
	if err != nil {
		tb.Fatal(err)
	}
	wire, err := st.PutCtx(context.Background(), &store.Entry{
		Key: store.ResultKey(exp, key, "test"), Experiment: exp, Title: res.Title, Options: key,
		Fingerprint: "test", Tables: res.String(), Metrics: metrics,
		CreatedAt: time.Date(2024, 5, 6, 7, 8, 9, 0, time.UTC),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return wire
}

// FuzzSkipValue holds the scanner to json.Valid on any input, and checks
// where it stops: after the value's last byte, so that a valid document
// ends there up to whitespace and any value it accepts is valid on its own.
func FuzzSkipValue(f *testing.F) {
	for _, s := range []string{
		`null`, ``, ` `, `{}`, `[]`, ` {"metrics":null} `, `{"metrics":{}}`, `{"key":"k"}`,
		`{"Metrics":1}`, `{"metrics":1}`, `{"metricſ":1}`, `{"metrics":1,"metrics":2}`,
		strings.Repeat("[", 10000) + strings.Repeat("]", 10000),
		strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
		strings.Repeat(`{"a":`, 10000) + "0" + strings.Repeat("}", 10000),
		strings.Repeat(`{"a":`, 10001) + "0" + strings.Repeat("}", 10001),
		"\"\xff\xfe\xe2\x80\"", "{\"\xff\":\"\xc3\"}", "\"\t\"", "\"\tn\"", "\"\x00\"", "\"\x1fn\"", "\"\x7f\"",
		`{} x`, `1 2`, `[1,]`, `{"a":1,}`, `{"a" 1}`, `[1 2]`, `{"a":1]`, `[}`, `tru`, `nulll`, `falsey`,
		`-`, `-0`, `01`, `1.`, `.5`, `1e`, `1e+`, `-0.5E+07`, `2.5e-3`, `1x`,
		`"é\n\/\b\f\r\t\\\""`, `"\u12G4"`, `"\u12"`, `"\x"`, `"`, `"\`,
	} {
		f.Add([]byte(s))
	}
	for _, exp := range []string{"fig1", "fig7"} {
		f.Add(realWire(f, exp))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if got, want := valid(src), json.Valid(src); got != want {
			t.Fatalf("SkipValue says valid=%v for %.200q, json.Valid %v", got, src, want)
		}
		start := len(src) - len(bytes.TrimLeft(src, space))
		if got := jsonbytes.SkipSpace(src, 0); got != start {
			t.Fatalf("SkipSpace(%.200q, 0) = %d, want %d", src, got, start)
		}
		end, ok := jsonbytes.SkipValue(src, start, 0)
		if !ok {
			return
		}
		if !json.Valid(src[start:end]) {
			t.Fatalf("SkipValue accepted %.200q, which json.Valid rejects", src[start:end])
		}
		if json.Valid(src) && end != len(bytes.TrimRight(src, space)) {
			t.Fatalf("SkipValue(%.200q) ended at %d, want %d", src, end, len(bytes.TrimRight(src, space)))
		}
	})
}

// TestSkipValueDepth: the containers around src[i] count toward the
// nesting limit.
func TestSkipValueDepth(t *testing.T) {
	nest := func(n int) []byte { return []byte(strings.Repeat("[", n) + strings.Repeat("]", n)) }
	for _, c := range []struct {
		n, depth int
		ok       bool
	}{
		{10000, 0, true}, {10001, 0, false}, {9999, 1, true}, {10000, 1, false},
		{1, 9999, true}, {1, 10000, false}, {0, 10000, true},
	} {
		src := nest(c.n)
		if c.n == 0 {
			src = []byte("0")
		}
		if end, ok := jsonbytes.SkipValue(src, 0, c.depth); ok != c.ok || ok && end != len(src) {
			t.Errorf("SkipValue(%d deep, depth %d) = %d, %v; want ok %v", c.n, c.depth, end, ok, c.ok)
		}
	}
}
