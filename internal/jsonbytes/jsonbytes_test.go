package jsonbytes

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// FuzzCompactIndent holds the byte loops to encoding/json: for any input
// AppendString writes what json.Marshal writes for it as a Go string, and for
// any valid JSON input AppendCompact writes what json.Marshal writes for it as
// a json.RawMessage, and Indent of that is json.Indent(…, "", "  ") plus a
// newline, in an exact-size slice.
func FuzzCompactIndent(f *testing.F) {
	for _, s := range []string{
		`{"a":1}`, `[]`, `{}`, `[{},[],{"":[]}]`, `"str"`, `1e400`, ` -0.5e-7 `, `null`, ` true`,
		" { \"k\" : [1, 2.50, null, true, \"x\u2028<y>\"] , \"o\": { } } ",
		"{\"raw\u2028sep\u2029\":\"<a href=\\\"x\\\">&amp;</a>\"}",
		"[\"\xff\xfe\x7f\", \"\xe2\x80\", \"\xe2\x80\xa8\", \"a\\\"b\\\\c\\/\\u00e9\\n\"]",
		"{\n  \"counters\": [\n    {\n      \"subsystem\": \"membank\",\n      \"value\": 3\n    }\n  ],\n  \"gauges\": []\n}\n",
		strings.Repeat("[", 40) + strings.Repeat("]", 40),
		strings.Repeat(`{"a":[`, 25) + "0" + strings.Repeat("]}", 25),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		want, err := json.Marshal(string(src))
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), string(src)); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Fatalf("AppendString(%q) = %q, json.Marshal %q", src, got[1:], want)
		}
		if !json.Valid(src) {
			t.Skip("AppendCompact and Indent take valid JSON")
		}
		wantCompact, err := json.Marshal(json.RawMessage(src))
		if err != nil {
			t.Fatal(err)
		}
		compact := AppendCompact([]byte("x"), src)
		if !bytes.Equal(compact[1:], wantCompact) || compact[0] != 'x' {
			t.Fatalf("AppendCompact(%q) = %q, json.Marshal(RawMessage) %q", src, compact[1:], wantCompact)
		}
		var wantIndent bytes.Buffer
		if err := json.Indent(&wantIndent, wantCompact, "", "  "); err != nil {
			t.Fatal(err)
		}
		wantIndent.WriteByte('\n')
		got := Indent(wantCompact)
		if !bytes.Equal(got, wantIndent.Bytes()) {
			t.Fatalf("Indent(%q) = %q, json.Indent %q", wantCompact, got, wantIndent.Bytes())
		}
		if cap(got) != len(got) {
			t.Fatalf("Indent returned %d spare bytes, want an exact-size slice", cap(got)-len(got))
		}
	})
}

// TestAppendFloat checks the float writer against json.Marshal at the
// format cut-offs, negative zero and subnormals, and that NaN and the
// infinities fail on both sides.
func TestAppendFloat(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -2.5, 1.0 / 3, 1e20, 123456789.125,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.5e-10, 1e-100,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 1.7e308,
		5e-324, 2.2250738585072014e-308, 1e-310, math.MaxFloat64,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat([]byte("x"), f)
		if err != nil || !bytes.Equal(got[1:], want) {
			t.Errorf("AppendFloat(%v) = %q, %v; json.Marshal %q", f, got[1:], err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := json.Marshal(f); err == nil {
			t.Fatalf("json.Marshal(%v) did not fail", f)
		}
		if got, err := AppendFloat([]byte("x"), f); err == nil || string(got) != "x" {
			t.Errorf("AppendFloat(%v) = %q, %v; want an error and nothing appended", f, got, err)
		}
	}
}
