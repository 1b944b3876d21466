package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
)

// refEncode is the reference the single-marshal encoder is checked against:
// the checksum is the SHA-256 of the compact encoding with Checksum empty,
// and the wire form is json.MarshalIndent of the checksummed entry plus a
// newline — two marshals, as Put did before it shared one.
func refEncode(t testing.TB, e *Entry) (wire []byte, sum string) {
	t.Helper()
	c := *e
	c.Checksum = ""
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(b)
	c.Checksum = hex.EncodeToString(h[:])
	wire, err = json.MarshalIndent(&c, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(wire, '\n'), c.Checksum
}

// realEntry runs exp (quick, one run, metrics collected) and builds the entry
// the service would store for it: ~5 KB for fig1, ~390 KB for fig7.
func realEntry(t testing.TB, exp string) *Entry {
	t.Helper()
	ok := experiments.OptionsKey{Seed: 3, Runs: 1, Quick: true}
	opt := ok.Options()
	opt.Parallelism = 1
	sink := obs.NewSink(obs.Config{Metrics: true})
	opt.Obs = sink
	res, err := experiments.Run(exp, opt)
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	if err := sink.Merged().WriteMetricsJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	bench := report.BenchRecord{ID: exp, Title: res.Title, Seed: ok.Seed, Runs: ok.Runs, Quick: ok.Quick, Parallelism: 1, WallSeconds: 0.5}
	bench.Finish()
	return &Entry{
		Key:         ResultKey(exp, ok, "test"),
		Experiment:  exp,
		Title:       res.Title,
		Options:     ok,
		Fingerprint: "test",
		Tables:      res.String(),
		Bench:       &bench,
		Metrics:     metrics.Bytes(),
		CreatedAt:   time.Date(2024, 5, 6, 7, 8, 9, 0, time.UTC),
	}
}

// FuzzEntryEncoding checks the single-marshal encoder against the reference
// for arbitrary tables (HTML-sensitive characters, U+2028, invalid UTF-8) and
// arbitrary valid-JSON metrics, and that decoding the encoding and encoding it
// again is the identity on the checksum and on the bytes.
func FuzzEntryEncoding(f *testing.F) {
	f.Add("== T ==\na  1\n", "title", []byte(`{"a":1}`), true)
	f.Add("<b>&amp;</b> \u2028\u2029 \xff\xfe", "t <&>", []byte(`{ "k" : [1, 2.50, null, true, "x\u2028<y>"] , "o": { } }`), true)
	f.Add("", "", []byte(nil), false)
	f.Add("tabs\tand\\slashes\"quoted\"", "\x00", []byte(`[]`), false)
	f.Add("x", "y", []byte(` "just a string" `), true)
	f.Add("x", "y", []byte(`1e400`), true)
	f.Fuzz(func(t *testing.T, tables, title string, metrics []byte, withBench bool) {
		if len(metrics) > 0 && !json.Valid(metrics) {
			t.Skip("metrics must be valid JSON")
		}
		e := testEntry(testKey(1), tables)
		e.Title = title
		e.Metrics = metrics
		if withBench {
			e.Bench = &report.BenchRecord{ID: e.Experiment, Title: title, WallSeconds: 1.5, SimEvents: 7}
		}
		wantWire, wantSum := refEncode(t, e)

		wire, sum, err := encodeEntry(e, false)
		if err != nil {
			t.Fatalf("encodeEntry: %v", err)
		}
		if sum != wantSum {
			t.Fatalf("checksum = %s, reference %s", sum, wantSum)
		}
		if !bytes.Equal(wire, wantWire) {
			t.Fatalf("wire encoding differs from MarshalIndent:\n got %q\nwant %q", wire, wantWire)
		}
		if cap(wire) != len(wire) {
			t.Errorf("wire slice has %d spare bytes, want exact size", cap(wire)-len(wire))
		}

		// decode∘encode is the identity on the checksum and the bytes. Invalid
		// UTF-8 is the one exception the checksum definition has always had:
		// Marshal writes it as the escape \ufffd but a decoded U+FFFD as the
		// rune itself, so such an entry is checked one round trip later.
		d, err := decodeWire(wire)
		if err != nil {
			t.Fatal(err)
		}
		if !utf8.ValidString(tables) || !utf8.ValidString(title) {
			if wire, sum, err = encodeEntry(d, false); err != nil {
				t.Fatal(err)
			}
			if d, err = decodeWire(wire); err != nil {
				t.Fatal(err)
			}
		}
		if d.Checksum != sum || !d.ChecksumOK() {
			t.Fatalf("decoded checksum %q does not verify (encoded %q)", d.Checksum, sum)
		}
		again, sum2, err := encodeEntry(d, false)
		if err != nil || sum2 != sum {
			t.Fatalf("re-encoding moved the checksum: %s -> %s (%v)", sum, sum2, err)
		}
		if !bytes.Equal(again, wire) {
			t.Fatalf("re-encoding moved the bytes:\n got %q\nwant %q", again, wire)
		}

		// A legacy entry carries no checksum and is encoded without one.
		legacy := *e
		legacy.Checksum = ""
		wantLegacy, err := json.MarshalIndent(&legacy, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if got, _, err := encodeEntry(e, true); err != nil || !bytes.Equal(got, append(wantLegacy, '\n')) {
			t.Fatalf("legacy encoding differs from MarshalIndent (%v):\n got %q\nwant %q", err, got, wantLegacy)
		}
	})
}

// TestRealEntryEncoding runs the reference comparison over the two entries
// the benchmark serves, and through Put: disk file, memory tier and GetBytes
// all hold the reference bytes.
func TestRealEntryEncoding(t *testing.T) {
	for _, exp := range []string{"fig1", "fig7"} {
		e := realEntry(t, exp)
		want, sum := refEncode(t, e)
		s, err := Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(e); err != nil {
			t.Fatal(err)
		}
		if e.Checksum != sum {
			t.Errorf("%s: Put stamped checksum %s, reference %s", exp, e.Checksum, sum)
		}
		file, err := os.ReadFile(s.Path(e.Key))
		if err != nil {
			t.Fatal(err)
		}
		got, ok, err := s.GetBytes(context.Background(), e.Key)
		if err != nil || !ok {
			t.Fatalf("%s: GetBytes after Put = (%v, %v)", exp, ok, err)
		}
		if !bytes.Equal(file, want) || !bytes.Equal(got, want) {
			t.Errorf("%s: file (%d B) / memory (%d B) differ from the reference encoding (%d B)", exp, len(file), len(got), len(want))
		}
		d, ok, err := s.Get(e.Key)
		if err != nil || !ok {
			t.Fatalf("%s: Get after Put = (%v, %v)", exp, ok, err)
		}
		if d.Tables != e.Tables || d.Checksum != sum || !d.CreatedAt.Equal(e.CreatedAt) {
			t.Errorf("%s: decoded entry differs from the one put", exp)
		}
	}
}

// TestParentWrittenCacheDir opens a cache directory written by the commit
// before the memory tier held encodings: every file must verify, be served as
// the bytes it holds, and be reproduced byte for byte by Put of its decoded
// entry — so either build can serve a directory the other wrote.
func TestParentWrittenCacheDir(t *testing.T) {
	files, err := filepath.Glob("testdata/parent_cache/RESULT_*.json")
	if err != nil || len(files) < 2 {
		t.Fatalf("fixture files: %v, %v", files, err)
	}
	dir := t.TempDir()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		want, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		key := filepath.Base(f)[len("RESULT_") : len("RESULT_")+64]
		got, ok, err := s.GetBytes(context.Background(), key)
		if err != nil || !ok {
			t.Fatalf("%s: GetBytes = (%v, %v)", ShortKey(key), ok, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: served bytes differ from the parent-written file", ShortKey(key))
		}
		e, ok, err := s.Get(key)
		if err != nil || !ok {
			t.Fatalf("%s: Get = (%v, %v)", ShortKey(key), ok, err)
		}
		if e.Key != key || e.Checksum == "" || !e.ChecksumOK() {
			t.Errorf("%s: decoded entry key %s checksum %q", ShortKey(key), ShortKey(e.Key), e.Checksum)
		}
		if err := fresh.Put(e); err != nil {
			t.Fatal(err)
		}
		rewritten, err := os.ReadFile(fresh.Path(key))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rewritten, want) {
			t.Errorf("%s: Put wrote a file that differs from the parent-written one", ShortKey(key))
		}
	}
	if n := s.Metric("entries_quarantined"); n != 0 {
		t.Errorf("%d parent-written entries quarantined", n)
	}
}

// TestNoEntryRetained checks the aliasing hazard is gone: the store keeps
// nothing of the caller's *Entry, and every Get returns its own copy.
func TestNoEntryRetained(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(30)
	e := testEntry(key, "original")
	e.Metrics = json.RawMessage(`{"a":1}`)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	e.Tables, e.Metrics[1] = "scribbled", 'X'
	a, _, _ := s.Get(key)
	b, _, _ := s.Get(key)
	if a == nil || b == nil || a == b {
		t.Fatalf("Get returned %p and %p, want two distinct entries", a, b)
	}
	if a.Tables != "original" || !a.ChecksumOK() || !reflect.DeepEqual(a, b) {
		t.Errorf("entry changed behind the store's back: %+v", a)
	}
	a.Tables = "scribbled too"
	if c, _, _ := s.Get(key); c.Tables != "original" {
		t.Errorf("mutating a returned entry reached the cache: %q", c.Tables)
	}
}

// TestMemBytesAndEviction pins the memory tier's bound: MemBytes is the sum
// of the resident encodings, eviction lowers it with MemLen, and an evicted
// encoding is garbage once its readers let go.
func TestMemBytesAndEviction(t *testing.T) {
	s, err := Open(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sizes := map[string]int64{}
	put := func(i int, tables string) string {
		key := testKey(i)
		if err := s.Put(testEntry(key, tables)); err != nil {
			t.Fatal(err)
		}
		wire, ok, err := s.GetBytes(ctx, key)
		if err != nil || !ok {
			t.Fatalf("GetBytes(%d) = (%v, %v)", i, ok, err)
		}
		sizes[key] = int64(len(wire))
		return key
	}
	k0 := put(40, strings.Repeat("x", 64<<10))
	if st := s.Stats(); st.MemEntries != 1 || st.MemBytes != sizes[k0] {
		t.Fatalf("after one put: %d entries, %d bytes, want 1 and %d", st.MemEntries, st.MemBytes, sizes[k0])
	}
	collected := make(chan struct{})
	func() {
		wire, _, _ := s.GetBytes(ctx, k0)
		runtime.SetFinalizer(&wire[0], func(*byte) { close(collected) })
	}()
	k1 := put(41, "small")
	if st := s.Stats(); st.MemEntries != 2 || st.MemBytes != sizes[k0]+sizes[k1] {
		t.Fatalf("after two puts: %d entries, %d bytes, want 2 and %d", st.MemEntries, st.MemBytes, sizes[k0]+sizes[k1])
	}
	// Re-putting a resident key replaces its bytes rather than adding to them.
	put(41, "small, but longer than before")
	if st := s.Stats(); st.MemEntries != 2 || st.MemBytes != sizes[k0]+sizes[k1] {
		t.Fatalf("after re-put: %d entries, %d bytes, want 2 and %d", st.MemEntries, st.MemBytes, sizes[k0]+sizes[k1])
	}
	// k0 is least recently used: the third key evicts it.
	k2 := put(42, "another")
	if st := s.Stats(); st.MemEntries != 2 || s.MemLen() != 2 || st.MemBytes != sizes[k1]+sizes[k2] {
		t.Fatalf("after eviction: %d entries, %d bytes, want 2 and %d", st.MemEntries, st.MemBytes, sizes[k1]+sizes[k2])
	}
	deadline := time.After(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-deadline:
			t.Fatal("evicted encoding still reachable after eviction")
		default:
		}
	}
	var text bytes.Buffer
	if err := s.WriteMetricsText(&text); err != nil {
		t.Fatal(err)
	}
	if want := []byte("qsm_store_mem_bytes " + strconv.FormatInt(sizes[k1]+sizes[k2], 10) + "\n"); !bytes.Contains(text.Bytes(), want) {
		t.Errorf("/metricsz text lacks %q:\n%s", want, text.Bytes())
	}
}

// TestCachedReadAllocsIndependentOfSize is the machine-independent form of
// the serving claim at the store: a memory hit hands out the resident bytes,
// so what it allocates (the span's argument list, nothing else) does not
// depend on the entry's size.
func TestCachedReadAllocsIndependentOfSize(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := map[string]float64{}
	for _, exp := range []string{"fig1", "fig7"} {
		e := realEntry(t, exp)
		if err := s.Put(e); err != nil {
			t.Fatal(err)
		}
		allocs[exp] = testing.AllocsPerRun(200, func() {
			if wire, ok, err := s.GetBytes(ctx, e.Key); !ok || err != nil || len(wire) == 0 {
				t.Fatalf("GetBytes = (%d bytes, %v, %v)", len(wire), ok, err)
			}
		})
	}
	if allocs["fig1"] != allocs["fig7"] || allocs["fig7"] > 1 {
		t.Errorf("GetBytes of a resident entry: %.0f allocations for fig1, %.0f for fig7; want equal and at most 1",
			allocs["fig1"], allocs["fig7"])
	}
}

// TestPutMarshalsOnce bounds what Put of the large entry allocates. One
// marshal costs the compact encoding (0.45 of the wire form: indenting the
// metrics more than doubles them), the indent buffer (1.1) and the resident
// copy (1.0), plus the temp file's bookkeeping: measured 2.5–2.7 encodings. A
// second json.Marshal of the entry anywhere in Put adds its compact form and
// crosses the ceiling; MarshalIndent's own buffers would add more.
func TestPutMarshalsOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	e := realEntry(t, "fig7")
	if err := s.Put(e); err != nil { // warm encoding/json's type cache and buffer pool
		t.Fatal(err)
	}
	wire, _, _ := s.GetBytes(context.Background(), e.Key)
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if err := s.Put(e); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perPut := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	if ratio := perPut / float64(len(wire)); ratio > 2.85 {
		t.Errorf("Put of a %d-byte entry allocates %.0f bytes (%.2f encodings), want about 2.6", len(wire), perPut, ratio)
	} else {
		t.Logf("Put of a %d-byte entry allocates %.0f bytes (%.2f encodings)", len(wire), perPut, ratio)
	}
}

var benchSink error

// BenchmarkStorePut times Put of the benchmark's small and large entries.
func BenchmarkStorePut(b *testing.B) {
	for _, exp := range []string{"fig1", "fig7"} {
		b.Run(exp, func(b *testing.B) {
			s, err := Open(b.TempDir(), 0)
			if err != nil {
				b.Fatal(err)
			}
			e := realEntry(b, exp)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = s.Put(e)
			}
			if benchSink != nil {
				b.Fatal(benchSink)
			}
		})
	}
}
