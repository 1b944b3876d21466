package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// decodeSeeds are the inputs FuzzDecodeEntry starts from: every way a
// document can make DecodeEntry decline its fast path, nesting at and one
// past encoding/json's limit, invalid UTF-8, trailing garbage, and the
// real entries TestRealEntryEncoding encodes plus the parent-written files.
func decodeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	const head = `{"key":"k","experiment":"fig7","tables":"t\n","created_at":"2024-05-06T07:08:09Z"`
	seeds := []string{
		head + `}`,
		head + `,"metrics":null}`,
		head + `,"metrics":{}}`,
		head + `,"metrics":[]}`,
		head + `,"metrics":""}`,
		head + `,"metrics" : { "a" : [1, 2.5e-3, true, null, "x <y>"] } }`,
		`{"metrics":{"a":1},` + head[1:] + `}`,
		head + `,"Metrics":{"a":1}}`,
		head + `,"METRICS":{"a":1},"metrics":{"b":2}}`,
		head + `,"metrics":{"b":2},"Metrics":{"a":1}}`,
		head + `,"metrics":{"b":2},"metricſ":{"a":1}}`,
		head + `,"metr\u0069cs":{"a":1}}`,
		head + `,"metrics":{"b":2},"metr\u0069cs":{"a":1}}`,
		head + `,"metrics":{"b":2},"metri\u0063s":{"a":1},"x":0}`,
		head + `,"metrics":{"a":1}}`,
		head + `,"metrics":{"a":1},"metrics":{"b":2}}`,
		head + `,"metrics":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		head + `,"metrics":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
		head + `,"metrics":` + strings.Repeat(`{"a":`, 9999) + "0" + strings.Repeat("}", 9999) + `}`,
		head + `,"tables":"\xff\xfe","metrics":{"\xe2\x80":"\xff"}}`,
		head + `,"metrics":{"a":1}} x`,
		head + `,"metrics":{"a":1}}}`,
		head + `,"metrics":{"a":1}`,
		head + `,"metrics":{"a":01}}`,
		head + `,"tables":5,"metrics":{"a":1}}`,
		head + `,"options":{"seed":"x"},"metrics":{"a":1}}`,
		head + `,"created_at":"yesterday","metrics":{"a":1}}`,
		head + `,"bench":null,"title":"<&>","checksum":"","metrics":{}}`,
		head + `,"unknown":[{"metrics":1}],"metrics":{}}`,
		`{}`, ` { } `, `[]`, `null`, `""`, `1`, ``, `{`, `{"metrics"}`, `{"metrics":}`, `{,}`,
	}
	var out [][]byte
	for _, s := range seeds {
		out = append(out, []byte(s))
	}
	for _, exp := range []string{"fig1", "fig7"} {
		wire, _, err := encodeEntry(realEntry(tb, exp), false)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, wire)
	}
	files, err := filepath.Glob("testdata/parent_cache/RESULT_*.json")
	if err != nil {
		tb.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// FuzzDecodeEntry holds DecodeEntry to json.Unmarshal for any input: the same
// entry (reflect.DeepEqual) or an error with the same text, and an entry
// that shares no memory with its input.
func FuzzDecodeEntry(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, wire []byte) {
		var want Entry
		wantErr := json.Unmarshal(wire, &want)
		in := bytes.Clone(wire)
		got, err := DecodeEntry(in)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("DecodeEntry(%.200q) error %v, json.Unmarshal %v", wire, err, wantErr)
		}
		if err != nil {
			if got != nil {
				t.Fatalf("DecodeEntry(%.200q) returned an entry with its error", wire)
			}
			return
		}
		clear(in)
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("DecodeEntry(%.200q) = %+v, json.Unmarshal %+v", wire, got, &want)
		}
	})
}

// TestDecodeEntryFastPath: on the entries the benchmark serves, DecodeEntry
// finds the metrics value itself rather than declining to json.Unmarshal.
func TestDecodeEntryFastPath(t *testing.T) {
	for _, exp := range []string{"fig1", "fig7"} {
		wire, _, err := encodeEntry(realEntry(t, exp), false)
		if err != nil {
			t.Fatal(err)
		}
		if lo, hi := metricsValue(wire); lo < 0 || hi-lo < len(wire)/2 {
			t.Errorf("%s: metricsValue = [%d, %d); want the span of the metrics value", exp, lo, hi)
		}
	}
}

// BenchmarkDecodeEntry times a decode of the benchmark's small and large
// entries by DecodeEntry and, for reference, by json.Unmarshal.
func BenchmarkDecodeEntry(b *testing.B) {
	for _, exp := range []string{"fig1", "fig7"} {
		wire, _, err := encodeEntry(realEntry(b, exp), false)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(exp+"/DecodeEntry", func(b *testing.B) {
			b.SetBytes(int64(len(wire)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeEntry(wire); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(exp+"/json.Unmarshal", func(b *testing.B) {
			b.SetBytes(int64(len(wire)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var e Entry
				if err := json.Unmarshal(wire, &e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
