package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
)

func testEntry(key, tables string) *Entry {
	return &Entry{
		Key:         key,
		Experiment:  "fig7",
		Options:     experiments.OptionsKey{Seed: 1, Runs: 2, Quick: true},
		Fingerprint: "test",
		Tables:      tables,
		CreatedAt:   time.Unix(0, 0).UTC(),
	}
}

func testKey(i int) string {
	return ResultKey(fmt.Sprintf("exp%d", i), experiments.OptionsKey{Seed: int64(i)}, "test")
}

func TestResultKeyStable(t *testing.T) {
	k := ResultKey("fig7", experiments.OptionsKey{Seed: 1, Runs: 2, Quick: true}, "fp")
	// Pinned: changing the canonical encoding silently invalidates every
	// existing cache; this failure makes that a deliberate act.
	const want = "6b2265dfe6c3adde8a575061d8c44411ae4b1c00e35291475466e203ea7d5e55"
	if k != want {
		t.Errorf("ResultKey = %s, want %s", k, want)
	}
	if k2 := ResultKey("fig7", experiments.OptionsKey{Seed: 1, Runs: 2, Quick: true}, "fp"); k2 != k {
		t.Errorf("identical payloads keyed differently: %s vs %s", k, k2)
	}
	for _, other := range []string{
		ResultKey("fig6", experiments.OptionsKey{Seed: 1, Runs: 2, Quick: true}, "fp"),
		ResultKey("fig7", experiments.OptionsKey{Seed: 2, Runs: 2, Quick: true}, "fp"),
		ResultKey("fig7", experiments.OptionsKey{Seed: 1, Runs: 2, Quick: true}, "fp2"),
	} {
		if other == k {
			t.Errorf("distinct payloads collided on %s", k)
		}
	}
}

func TestValidKey(t *testing.T) {
	if k := testKey(0); !ValidKey(k) {
		t.Errorf("ValidKey(%q) = false", k)
	}
	for _, bad := range []string{
		"", "short", strings.Repeat("g", 64), strings.Repeat("A", 64),
		"../../etc/passwd", strings.Repeat("0", 63), strings.Repeat("0", 65),
	} {
		if ValidKey(bad) {
			t.Errorf("ValidKey(%q) = true", bad)
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(1)
	if _, ok, err := s.Get(key); err != nil || ok {
		t.Fatalf("Get on empty store = (%v, %v)", ok, err)
	}
	e := testEntry(key, "== T ==\na  1\n")
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after Put = (%v, %v)", ok, err)
	}
	if got.Tables != e.Tables || got.Experiment != e.Experiment {
		t.Errorf("Get returned %+v, want %+v", got, e)
	}

	// A fresh store over the same directory must serve the entry from disk.
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got2, ok, err := s2.Get(key)
	if err != nil || !ok {
		t.Fatalf("disk Get = (%v, %v)", ok, err)
	}
	if got2.Tables != e.Tables {
		t.Errorf("disk entry tables = %q, want %q", got2.Tables, e.Tables)
	}
	if s2.MemLen() != 1 {
		t.Errorf("disk hit not promoted into memory: MemLen = %d", s2.MemLen())
	}
}

func TestGetMalformedKey(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("../escape"); err == nil {
		t.Error("Get with malformed key did not error")
	}
	if err := s.Put(testEntry("nothex", "x")); err == nil {
		t.Error("Put with malformed key did not error")
	}
}

func TestCorruptEntryIsQuarantinedMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(2)
	if err := os.WriteFile(s.Path(key), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(key); err != nil || ok {
		t.Fatalf("Get over corrupt entry = (%v, %v), want miss", ok, err)
	}
	if _, err := os.Stat(s.Path(key)); !errors.Is(err, os.ErrNotExist) {
		t.Error("corrupt entry not moved aside; it would shadow the key forever")
	}
	if _, err := os.Stat(s.QuarantinePath(key)); err != nil {
		t.Errorf("corrupt entry not quarantined for inspection: %v", err)
	}
	if got := s.Metric("entries_quarantined"); got != 1 {
		t.Errorf("entries_quarantined = %d, want 1", got)
	}
}

// TestChecksumCatchesTamperedEntry flips a byte inside a stored entry's
// tables while keeping the JSON valid: only checksum-on-read can catch
// that, and it must quarantine rather than serve the wrong bytes.
func TestChecksumCatchesTamperedEntry(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(3)
	if err := s.Put(testEntry(key, "== T ==\na  1\n")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	tampered := strings.Replace(string(data), "a  1", "a  2", 1)
	if tampered == string(data) {
		t.Fatal("tamper target not found in serialized entry")
	}
	if err := os.WriteFile(s.Path(key), []byte(tampered), 0o644); err != nil {
		t.Fatal(err)
	}

	// A cold store must detect the mismatch and quarantine.
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s2.Get(key); err != nil || ok {
		t.Fatalf("Get over tampered entry = (%v, %v), want clean miss", ok, err)
	}
	if s2.Metric("checksum_failures") != 1 || s2.Metric("entries_quarantined") != 1 {
		t.Errorf("metrics = checksum %d quarantined %d, want 1/1",
			s2.Metric("checksum_failures"), s2.Metric("entries_quarantined"))
	}
	if _, err := os.Stat(s2.QuarantinePath(key)); err != nil {
		t.Errorf("tampered entry not quarantined: %v", err)
	}
	// The miss recomputes and the fresh entry serves again.
	e, hit, err := s2.GetOrCompute(key, func() (*Entry, error) { return testEntry(key, "recomputed"), nil })
	if err != nil || hit {
		t.Fatalf("recompute after quarantine = (hit=%v, %v)", hit, err)
	}
	if e.Tables != "recomputed" {
		t.Errorf("recomputed tables = %q", e.Tables)
	}
}

func TestEntryChecksumRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(4)
	if err := s.Put(testEntry(key, "tables")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	e, ok, err := s2.Get(key)
	if err != nil || !ok {
		t.Fatalf("disk Get = (%v, %v)", ok, err)
	}
	if e.Checksum == "" || !e.ChecksumOK() {
		t.Errorf("round-tripped entry checksum %q invalid", e.Checksum)
	}
	// Legacy entries without a checksum still load.
	legacy := testEntry(testKey(5), "old")
	data, _ := json.Marshal(legacy)
	if err := os.WriteFile(s2.Path(legacy.Key), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s2.Get(legacy.Key); err != nil || !ok {
		t.Errorf("checksum-less legacy entry = (%v, %v), want hit", ok, err)
	}
}

// TestUnwritableDirDegradesToComputeThrough removes the cache directory out
// from under the store: GetOrCompute must still serve computed results
// (cached in memory only), not fail.
func TestUnwritableDirDegradesToComputeThrough(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	key := testKey(6)
	e, hit, err := s.GetOrCompute(key, func() (*Entry, error) { return testEntry(key, "computed"), nil })
	if err != nil || hit {
		t.Fatalf("GetOrCompute with unwritable dir = (hit=%v, %v), want computed success", hit, err)
	}
	if e.Tables != "computed" {
		t.Errorf("tables = %q", e.Tables)
	}
	if got := s.Metric("writes_degraded"); got != 1 {
		t.Errorf("writes_degraded = %d, want 1", got)
	}
	// The memory-only entry still serves: no recompute on the next call.
	if _, hit, err := s.GetOrCompute(key, func() (*Entry, error) {
		t.Error("recompute despite memory-cached entry")
		return nil, errors.New("unreachable")
	}); err != nil || !hit {
		t.Errorf("second GetOrCompute = (hit=%v, %v), want memory hit", hit, err)
	}
}

func TestInjectedReadErrorComputesThrough(t *testing.T) {
	dir := t.TempDir()
	plain, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(7)
	if err := plain.Put(testEntry(key, "on disk")); err != nil {
		t.Fatal(err)
	}

	inj := faults.New(faults.Config{Seed: 1, Rules: map[faults.Class]faults.Rule{
		faults.StoreRead: {Every: 1, Max: 1},
	}})
	s, err := OpenConfig(Config{Dir: dir, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	// Get itself surfaces the injected error honestly...
	if _, _, err := s.Get(key); err == nil {
		t.Fatal("injected read error not surfaced by Get")
	}
	var ie *faults.InjectedError
	// ...but GetOrCompute degrades to compute-through (budget exhausted, so
	// its own Get succeeds; force a second injector to hit the compute path).
	inj2 := faults.New(faults.Config{Seed: 1, Rules: map[faults.Class]faults.Rule{
		faults.StoreRead: {Every: 1, Max: 1},
	}})
	s2, err := OpenConfig(Config{Dir: dir, Faults: inj2})
	if err != nil {
		t.Fatal(err)
	}
	computed := false
	e, hit, err := s2.GetOrCompute(key, func() (*Entry, error) {
		computed = true
		return testEntry(key, "recomputed"), nil
	})
	if err != nil {
		if errors.As(err, &ie) {
			t.Fatalf("GetOrCompute surfaced the injected error instead of degrading: %v", err)
		}
		t.Fatal(err)
	}
	if !computed || hit {
		t.Errorf("computed=%v hit=%v, want compute-through on read error", computed, hit)
	}
	if e.Tables != "recomputed" {
		t.Errorf("tables = %q", e.Tables)
	}
	if s2.Metric("reads_degraded") != 1 || s2.Metric("read_errors") != 1 {
		t.Errorf("metrics = degraded %d errors %d, want 1/1",
			s2.Metric("reads_degraded"), s2.Metric("read_errors"))
	}
}

func TestInjectedWriteErrorDegradesToMemory(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 1, Rules: map[faults.Class]faults.Rule{
		faults.StoreWrite: {Every: 1, Max: 1},
	}})
	s, err := OpenConfig(Config{Dir: t.TempDir(), Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(8)
	e, hit, err := s.GetOrCompute(key, func() (*Entry, error) { return testEntry(key, "v"), nil })
	if err != nil || hit || e.Tables != "v" {
		t.Fatalf("GetOrCompute under write fault = (%v, hit=%v, %v)", e, hit, err)
	}
	if _, err := os.Stat(s.Path(key)); !errors.Is(err, os.ErrNotExist) {
		t.Error("injected write fault still produced a disk file")
	}
	if got := s.Metric("writes_degraded"); got != 1 {
		t.Errorf("writes_degraded = %d, want 1", got)
	}
	if inj.Count(faults.StoreWrite) != 1 {
		t.Errorf("injector count = %d, want 1", inj.Count(faults.StoreWrite))
	}
}

func TestInjectedCorruptionQuarantines(t *testing.T) {
	dir := t.TempDir()
	plain, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(9)
	if err := plain.Put(testEntry(key, "pristine")); err != nil {
		t.Fatal(err)
	}
	inj := faults.New(faults.Config{Seed: 4, Rules: map[faults.Class]faults.Rule{
		faults.CorruptEntry: {Every: 1, Max: 1},
	}})
	s, err := OpenConfig(Config{Dir: dir, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(key); err != nil || ok {
		t.Fatalf("Get over injected corruption = (%v, %v), want miss", ok, err)
	}
	if got := s.Metric("entries_quarantined"); got != 1 {
		t.Errorf("entries_quarantined = %d, want 1", got)
	}
	if inj.Count(faults.CorruptEntry) != 1 {
		t.Errorf("injector count = %d, want 1", inj.Count(faults.CorruptEntry))
	}
}

func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{testKey(10), testKey(11), testKey(12)}
	for _, k := range keys {
		if err := s.Put(testEntry(k, "t "+k)); err != nil {
			t.Fatal(err)
		}
	}
	if s.MemLen() != 2 {
		t.Fatalf("MemLen = %d, want 2", s.MemLen())
	}
	// The evicted entry must still be servable from disk.
	got, ok, err := s.Get(keys[0])
	if err != nil || !ok {
		t.Fatalf("evicted entry not on disk: (%v, %v)", ok, err)
	}
	if got.Tables != "t "+keys[0] {
		t.Errorf("disk entry tables = %q", got.Tables)
	}
}

// TestMetricsMemBytesMax: mem_bytes is the resident byte count when scraped
// and mem_bytes_max the largest count a scrape has seen, so an eviction
// between two scrapes lowers the first and not the second.
func TestMetricsMemBytesMax(t *testing.T) {
	s, err := Open(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	scrape := func() string {
		var b strings.Builder
		if err := s.WriteMetricsText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if err := s.Put(testEntry(testKey(20), strings.Repeat("x", 1000))); err != nil {
		t.Fatal(err)
	}
	_, peak := s.memUsage()
	scrape()
	if err := s.Put(testEntry(testKey(21), "small")); err != nil {
		t.Fatal(err)
	}
	_, now := s.memUsage()
	text := scrape()
	for _, want := range []string{
		fmt.Sprintf("qsm_store_mem_bytes %d\n", now),
		fmt.Sprintf("qsm_store_mem_bytes_max %d\n", peak),
	} {
		if now >= peak || !strings.Contains(text, want) {
			t.Errorf("/metricsz lacks %q (resident %d, peak %d):\n%s", want, now, peak, text)
		}
	}
}

func TestGetOrComputeErrorNotCached(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(21)
	boom := errors.New("simulation failed")
	if _, _, err := s.GetOrCompute(key, func() (*Entry, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("first call error = %v, want %v", err, boom)
	}
	// The failure must not be cached: the next call recomputes and succeeds.
	e, hit, err := s.GetOrCompute(key, func() (*Entry, error) { return testEntry(key, "ok"), nil })
	if err != nil || hit {
		t.Fatalf("retry after error = (hit=%v, %v)", hit, err)
	}
	if e.Tables != "ok" {
		t.Errorf("retry tables = %q", e.Tables)
	}

	// A later call is a plain memory hit with no recomputation, and it gets
	// an entry equal to the computing call's but its own copy.
	warm, hit, err := s.GetOrCompute(key, func() (*Entry, error) {
		t.Error("compute ran on a warm cache")
		return nil, errors.New("unreachable")
	})
	if err != nil || !hit {
		t.Fatalf("warm GetOrCompute = (hit=%v, %v)", hit, err)
	}
	if !reflect.DeepEqual(warm, e) {
		t.Errorf("warm call got %+v, computing call got %+v", warm, e)
	}
	if warm == e {
		t.Error("warm call shares the computing call's *Entry")
	}
	if warm.Checksum == "" || !warm.ChecksumOK() {
		t.Errorf("warm entry checksum %q does not verify", warm.Checksum)
	}
}

func TestWriteFileAtomicLeavesNoPartial(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Writing under a path whose parent is a regular file fails at temp
	// creation; nothing may be left behind.
	if err := writeFileAtomic(filepath.Join(blocker, "e.json"), []byte("data")); err == nil {
		t.Fatal("writeFileAtomic into a non-directory did not error")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "blocker" {
		t.Errorf("stray files after failed write: %v", ents)
	}
}
