package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The metrics snapshot as encoding/json structs: the reference the hand
// writer is checked against.

type counterJSON struct {
	Subsystem string `json:"subsystem"`
	Name      string `json:"name"`
	Labels    string `json:"labels,omitempty"`
	Value     uint64 `json:"value"`
}

type gaugeJSON struct {
	Subsystem string `json:"subsystem"`
	Name      string `json:"name"`
	Labels    string `json:"labels,omitempty"`
	Value     int64  `json:"value"`
	Max       int64  `json:"max"`
}

type bucketJSON struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

type histJSON struct {
	Subsystem string       `json:"subsystem"`
	Name      string       `json:"name"`
	Labels    string       `json:"labels,omitempty"`
	Count     uint64       `json:"count"`
	Sum       float64      `json:"sum"`
	Min       float64      `json:"min"`
	Max       float64      `json:"max"`
	Buckets   []bucketJSON `json:"buckets"`
	Overflow  uint64       `json:"overflow"`
}

type metricsJSON struct {
	Counters   []counterJSON `json:"counters"`
	Gauges     []gaugeJSON   `json:"gauges"`
	Histograms []histJSON    `json:"histograms"`
}

// refMetricsJSON is the reference WriteMetricsJSON is checked against: the
// snapshot as encoding/json structs, written by a json.Encoder indenting by
// two spaces, and the same snapshot as json.Marshal writes it (the reference
// for AppendMetricsJSON).
func refMetricsJSON(r *Recorder) (indented, compact []byte, err error) {
	out := metricsJSON{
		Counters:   []counterJSON{},
		Gauges:     []gaugeJSON{},
		Histograms: []histJSON{},
	}
	if r != nil && r.reg != nil {
		reg := r.reg
		for _, k := range sortedKeys(len(reg.counters), func(add func(Key)) {
			for k := range reg.counters {
				add(k)
			}
		}) {
			out.Counters = append(out.Counters, counterJSON{k.Subsystem, k.Name, k.Labels, reg.counters[k].v})
		}
		for _, k := range sortedKeys(len(reg.gauges), func(add func(Key)) {
			for k := range reg.gauges {
				add(k)
			}
		}) {
			g := reg.gauges[k]
			out.Gauges = append(out.Gauges, gaugeJSON{k.Subsystem, k.Name, k.Labels, g.v, g.max})
		}
		for _, k := range sortedKeys(len(reg.hists), func(add func(Key)) {
			for k := range reg.hists {
				add(k)
			}
		}) {
			h := reg.hists[k]
			hj := histJSON{
				Subsystem: k.Subsystem, Name: k.Name, Labels: k.Labels,
				Count: h.n, Sum: h.sum, Min: h.min, Max: h.max,
				Buckets:  make([]bucketJSON, len(h.bounds)),
				Overflow: h.counts[len(h.bounds)],
			}
			for i, b := range h.bounds {
				hj.Buckets[i] = bucketJSON{LE: b, Count: h.counts[i]}
			}
			out.Histograms = append(out.Histograms, hj)
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return nil, nil, err
	}
	if compact, err = json.Marshal(out); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), compact, nil
}

// Strings and floats the generated registries draw from: everything
// encoding/json escapes or formats specially.
var (
	diffStrings = []string{
		"", "membank", "queue_depth", "arch=SMP,pattern=Random,bank=3",
		"<script>&amp;</script>", "a>b", " ", "x y", "é日本語🙂",
		"\xff\xfe", "bad\xc3(utf8", "\xe2\x80", "quote\"back\\slash", "ctl\x00\x01\x1f\x7f",
		"\b\f\n\r\t", "line\u2028sep\u2029para", "\u2027\u202a",
	}
	diffFloats = []float64{
		0, math.Copysign(0, -1), 1, -1.5, 1.0 / 3, 123456789.125, 55, 1 << 53,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.5e-10,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 1e300,
		5e-324, 2.2250738585072014e-308, 1e-310, math.MaxFloat64, -math.SmallestNonzeroFloat64,
	}
	diffBad = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
)

// genRegistry builds a registry of a few random series over the tables
// above; with bad set, one float of one histogram is NaN or an infinity.
func genRegistry(rng *rand.Rand, bad bool) *Recorder {
	r := New(Config{Metrics: true})
	str := func() string { return diffStrings[rng.Intn(len(diffStrings))] }
	flt := func() float64 { return diffFloats[rng.Intn(len(diffFloats))] }
	key := func() Key { return Key{str(), str(), str()} }
	for i := rng.Intn(4); i > 0; i-- {
		r.reg.counters[key()] = &Counter{v: rng.Uint64() >> uint(rng.Intn(64))}
	}
	for i := rng.Intn(4); i > 0; i-- {
		r.reg.gauges[key()] = &Gauge{v: rng.Int63() - rng.Int63(), max: rng.Int63()}
	}
	var hists []*Histogram
	for i := rng.Intn(4); i > 0; i-- {
		n := rng.Intn(5)
		h := &Histogram{bounds: make([]float64, n), counts: make([]uint64, n+1)}
		for j := range h.bounds {
			h.bounds[j] = flt()
		}
		for j := range h.counts {
			h.counts[j] = uint64(rng.Intn(1000))
			h.n += h.counts[j]
		}
		h.sum, h.min, h.max = flt(), flt(), flt()
		r.reg.hists[key()] = h
		hists = append(hists, h)
	}
	if bad {
		if len(hists) == 0 {
			h := &Histogram{counts: make([]uint64, 1)}
			r.reg.hists[key()] = h
			hists = append(hists, h)
		}
		h := hists[rng.Intn(len(hists))]
		v := diffBad[rng.Intn(len(diffBad))]
		switch rng.Intn(4) {
		case 0:
			h.sum = v
		case 1:
			h.min = v
		case 2:
			h.max = v
		default:
			h.bounds = append(h.bounds, v)
			h.counts = append(h.counts, 0)
		}
	}
	return r
}

// TestMetricsJSONMatchesReference is the differential test of the metrics
// writer: over generated registries (HTML-sensitive labels, U+2028/U+2029,
// non-ASCII and invalid UTF-8; floats at the 1e-6 and 1e21 format cut-offs,
// negative zero and subnormals) WriteMetricsJSON and AppendMetricsJSON write
// exactly what the encoding/json reference writes, and where the reference fails on NaN or an
// infinity the writer fails too and writes nothing.
func TestMetricsJSONMatchesReference(t *testing.T) {
	check := func(name string, r *Recorder, bad bool) {
		t.Helper()
		want, wantCompact, wantErr := refMetricsJSON(r)
		var got bytes.Buffer
		err := r.WriteMetricsJSON(&got)
		compact, compactErr := r.AppendMetricsJSON(nil)
		switch {
		case bad && (wantErr == nil || err == nil || compactErr == nil || got.Len() != 0):
			t.Fatalf("%s: reference error %v; writer error %v after %d bytes, compact error %v; want all to fail, writing nothing",
				name, wantErr, err, got.Len(), compactErr)
		case !bad && (wantErr != nil || err != nil || compactErr != nil):
			t.Fatalf("%s: reference error %v, writer error %v, compact error %v", name, wantErr, err, compactErr)
		case !bytes.Equal(got.Bytes(), want):
			t.Fatalf("%s: writer differs from encoding/json:\n got %q\nwant %q", name, got.Bytes(), want)
		case !bytes.Equal(compact, wantCompact):
			t.Fatalf("%s: compact writer differs from json.Marshal:\n got %q\nwant %q", name, compact, wantCompact)
		}
	}
	var nilRec *Recorder
	check("nil recorder", nilRec, false)
	check("metrics off", New(Config{}), false)
	check("empty registry", New(Config{Metrics: true}), false)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		bad := i%5 == 4
		check(fmt.Sprintf("registry %d", i), genRegistry(rng, bad), bad)
	}
}
