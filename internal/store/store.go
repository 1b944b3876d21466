// Package store is a content-addressed cache of experiment results. The key
// is the SHA-256 of a canonical JSON encoding of (experiment id, the
// deterministic fields of experiments.Options, a code fingerprint); the
// value is the experiment's rendered tables plus its bench record and
// metrics JSON. Entries live on disk under a cache directory with an
// in-memory LRU in front. The store does not deduplicate concurrent
// computations of one key: its caller (the service's admission queue)
// never runs two at once.
//
// An entry has one stored representation, its wire encoding: indented JSON
// plus a newline, produced once by Put. The disk file holds those bytes, the
// LRU holds those bytes, and GetBytes hands them to the HTTP layer to write
// as they are — a cached read neither decodes nor encodes. The store keeps no
// *Entry: Get and GetOrCompute decode a fresh one per call for the callers
// that want fields (qsmbench -cache, tests). Put writes that encoding with
// encoding/json for the small fixed fields only; the metrics blob is copied
// and indented by byte loops that do not validate it, so an Entry's Metrics
// must be valid JSON (the registry's own snapshot, or a value encoding/json
// decoded).
//
// Because the simulator is deterministic in its keyed options, a cache hit
// is byte-identical to a recomputation — the cache changes latency, never
// results. The store defends that guarantee against storage failures:
// entries carry a checksum verified on every disk read (a corrupt or
// truncated entry is quarantined and reported as a miss, so the result is
// recomputed rather than served wrong), and GetOrCompute degrades to
// compute-through when the disk misbehaves — a read error falls through to
// computation and a failed write falls back to memory-only caching, so an
// unwritable cache directory costs latency, never availability or
// correctness. Fault sites consult an optional faults.Injector, letting
// tests drive every degraded path deterministically.
package store

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/report"
)

// Entry is one cached experiment result.
type Entry struct {
	Key         string                 `json:"key"`
	Experiment  string                 `json:"experiment"`
	Title       string                 `json:"title,omitempty"`
	Options     experiments.OptionsKey `json:"options"`
	Fingerprint string                 `json:"fingerprint"`
	// Tables is the experiment's rendered ASCII tables, exactly as the
	// Result.String() of the run that populated the entry produced them.
	Tables string `json:"tables"`
	// Bench is the producing run's performance record (wall time, simulated
	// events); on a cache hit it describes the original computation.
	Bench *report.BenchRecord `json:"bench,omitempty"`
	// Metrics holds the producing run's aggregated METRICS JSON when the
	// run collected metrics; nil otherwise. It must be valid JSON, compact
	// (as the service stores it) or not: Put does not validate it.
	Metrics   json.RawMessage `json:"metrics,omitempty"`
	CreatedAt time.Time       `json:"created_at"`
	// Checksum is the hex SHA-256 of the entry's canonical JSON encoding
	// with this field empty; Put fills it and Get verifies it, so silent
	// disk corruption surfaces as a quarantined miss instead of a wrong
	// result. Entries written before checksums existed (empty field) are
	// accepted unverified.
	Checksum string `json:"checksum,omitempty"`
}

// DefaultMaxMem bounds the in-memory LRU when Open is given no limit.
const DefaultMaxMem = 128

// Config parameterises a Store beyond the directory and LRU bound.
type Config struct {
	// Dir is the cache directory, created if needed. Required.
	Dir string
	// MaxMem bounds the in-memory LRU entry count; <= 0 means DefaultMaxMem.
	MaxMem int
	// Faults optionally injects deterministic read/write I/O errors and
	// entry corruption at the store's fault sites; nil injects nothing.
	Faults *faults.Injector
}

// Store is a disk-backed result cache with an in-memory LRU in front. All
// methods are safe for concurrent use.
type Store struct {
	dir    string
	max    int
	faults *faults.Injector

	mu       sync.Mutex
	mem      map[string]*list.Element // key → element whose Value is resident
	lru      *list.List               // front = most recently used
	memBytes int64                    // sum of len(wire) over the LRU
	// scrapedMemBytes is the largest memBytes a metrics scrape has seen,
	// rendered as mem_bytes_max.
	scrapedMemBytes int64

	// met counts the store's degradation events, indexed like
	// metricNames; WriteMetricsText and Stats read it at scrape time.
	met [numMetrics]atomic.Uint64
}

// The store's self-metrics, as indexes into Store.met.
const (
	readErrors    = iota // disk reads that errored (injected or real)
	quarantined          // corrupt/truncated entries moved aside
	checksumFails        // quarantines caused by checksum mismatch
	writeDegraded        // Put failures degraded to memory-only
	readDegraded         // Get errors degraded to compute-through
	numMetrics
)

// metricNames names the self-metrics for Metric and /metricsz.
var metricNames = [numMetrics]string{"read_errors", "entries_quarantined", "checksum_failures", "writes_degraded", "reads_degraded"}

// resident is one LRU slot: an entry's wire encoding, shared read-only with
// every reader.
type resident struct {
	key  string
	wire []byte
}

// Open creates (if needed) the cache directory and returns a store over it.
// maxMem bounds the in-memory LRU entry count; <= 0 means DefaultMaxMem.
// Disk entries are never evicted by the store.
func Open(dir string, maxMem int) (*Store, error) {
	return OpenConfig(Config{Dir: dir, MaxMem: maxMem})
}

// OpenConfig is Open with the full configuration surface.
func OpenConfig(cfg Config) (*Store, error) {
	if cfg.MaxMem <= 0 {
		cfg.MaxMem = DefaultMaxMem
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating cache dir: %w", err)
	}
	return &Store{
		dir:    cfg.Dir,
		max:    cfg.MaxMem,
		faults: cfg.Faults,
		mem:    map[string]*list.Element{},
		lru:    list.New(),
	}, nil
}

// WriteMetricsText dumps the store's self-metrics in Prometheus text
// format; the service layer appends it to /metricsz.
func (s *Store) WriteMetricsText(w io.Writer) error {
	rec := obs.New(obs.Config{Metrics: true})
	for i, name := range metricNames {
		rec.Counter("store", name, "").Add(s.met[i].Load())
	}
	s.mu.Lock()
	s.scrapedMemBytes = max(s.scrapedMemBytes, s.memBytes)
	g := rec.Gauge("store", "mem_bytes", "")
	g.Set(s.scrapedMemBytes)
	g.Set(s.memBytes)
	s.mu.Unlock()
	return rec.WritePrometheusText(w)
}

// Metric returns the current value of one store self-metric by name
// (read_errors, entries_quarantined, checksum_failures, writes_degraded,
// reads_degraded); unknown names read zero.
func (s *Store) Metric(name string) uint64 {
	for i, n := range metricNames {
		if n == name {
			return s.met[i].Load()
		}
	}
	return 0
}

// Stats is a point-in-time snapshot of the store's health counters, shaped
// for the service's /statusz endpoint.
type Stats struct {
	// MemEntries is the current in-memory LRU population and MemBytes the
	// sum of its encodings' lengths: at most MaxMem entries, so at most
	// MaxMem times the largest result.
	MemEntries int   `json:"mem_entries"`
	MemBytes   int64 `json:"mem_bytes"`
	// The remaining fields mirror the store self-metrics: degradation and
	// corruption counters since the store opened.
	ReadErrors         uint64 `json:"read_errors"`
	EntriesQuarantined uint64 `json:"entries_quarantined"`
	ChecksumFailures   uint64 `json:"checksum_failures"`
	WritesDegraded     uint64 `json:"writes_degraded"`
	ReadsDegraded      uint64 `json:"reads_degraded"`
}

// Stats returns the store's current health counters.
func (s *Store) Stats() Stats {
	var st Stats
	st.MemEntries, st.MemBytes = s.memUsage()
	st.ReadErrors = s.met[readErrors].Load()
	st.EntriesQuarantined = s.met[quarantined].Load()
	st.ChecksumFailures = s.met[checksumFails].Load()
	st.WritesDegraded = s.met[writeDegraded].Load()
	st.ReadsDegraded = s.met[readDegraded].Load()
	return st
}

// Dir returns the cache directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the disk path backing key.
func (s *Store) Path(key string) string {
	return filepath.Join(s.dir, "RESULT_"+key+".json")
}

// QuarantinePath returns where a corrupt entry for key is moved on
// detection.
func (s *Store) QuarantinePath(key string) string {
	return s.Path(key) + ".quarantined"
}

// Get returns the cached entry for key, decoded from its stored encoding:
// every call returns its own *Entry. See GetBytes for the read itself.
func (s *Store) Get(key string) (*Entry, bool, error) {
	wire, ok, err := s.GetBytes(context.Background(), key)
	if !ok || err != nil {
		return nil, false, err
	}
	e, err := decodeWire(wire)
	return e, err == nil, err
}

// decodeWire decodes an encoding the store produced.
func decodeWire(wire []byte) (*Entry, error) {
	e := new(Entry)
	if err := json.Unmarshal(wire, e); err != nil {
		return nil, fmt.Errorf("store: decoding stored entry: %w", err)
	}
	return e, nil
}

// GetBytes returns the wire encoding of the cached entry for key — the bytes
// Put wrote to disk and GET /v1/results/{key} serves — consulting the
// in-memory LRU first and falling back to disk (promoting a disk hit into
// memory). The slice is shared with the cache and every other reader and
// must not be modified. A malformed key is an error; a corrupt or
// checksum-failing disk entry is quarantined (moved to QuarantinePath) and
// reported as a miss, so one bad file cannot poison its key forever and the
// evidence survives for inspection.
//
// When ctx carries an obs.TraceContext, the read emits a wall-clock
// "store.get" span annotated with its outcome (hit, miss, error), and
// injected faults, quarantines, and checksum failures become span events and
// structured log lines stamped with the trace ID.
func (s *Store) GetBytes(ctx context.Context, key string) ([]byte, bool, error) {
	tc := obs.TraceContextFrom(ctx)
	sp := tc.Start("store", "store", "store.get", obs.WArg{Key: "key", Val: ShortKey(key)})
	wire, ok, err := s.get(tc, key)
	switch {
	case err != nil:
		sp.Annotate("outcome", "error")
	case ok:
		sp.Annotate("outcome", "hit")
	default:
		sp.Annotate("outcome", "miss")
	}
	sp.End()
	return wire, ok, err
}

func (s *Store) get(tc *obs.TraceContext, key string) ([]byte, bool, error) {
	if !ValidKey(key) {
		return nil, false, fmt.Errorf("store: malformed key %q", key)
	}
	s.mu.Lock()
	wire, ok := s.lookup(key)
	s.mu.Unlock()
	if ok {
		return wire, true, nil
	}
	if err := s.faults.Err(faults.StoreRead, "store get"); err != nil {
		s.met[readErrors].Add(1)
		s.noteFault(tc, "store.get", faults.StoreRead, key, err)
		return nil, false, err
	}
	data, err := os.ReadFile(s.Path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		s.met[readErrors].Add(1)
		tc.Logger().Error("store read failed", "key", ShortKey(key), "error", err)
		return nil, false, err
	}
	data = s.faults.CorruptBytes(data)
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		s.quarantine(tc, key, "malformed entry JSON")
		return nil, false, nil
	}
	// One marshal both verifies the entry and yields what is promoted: the
	// canonical encoding of the verified value, never the file's own bytes
	// (the checksum covers the value, not its whitespace).
	wire, sum, err := encodeEntry(&e, e.Checksum == "")
	if err != nil || (e.Checksum != "" && e.Checksum != sum) {
		s.met[checksumFails].Add(1)
		s.quarantine(tc, key, "checksum mismatch")
		return nil, false, nil
	}
	s.mu.Lock()
	s.insert(key, wire)
	s.mu.Unlock()
	return wire, true, nil
}

// noteFault records an injected store fault on the request's trace: an
// instant span event on the store row plus a structured log line carrying
// the fault class, so chaos runs can be audited from either artifact.
func (s *Store) noteFault(tc *obs.TraceContext, site string, class faults.Class, key string, err error) {
	tc.Instant("store", "fault:"+class.String(), obs.WArg{Key: "fault", Val: class.String()}, obs.WArg{Key: "key", Val: ShortKey(key)})
	tc.Logger().Warn("injected store fault", "fault", class.String(), "site", site, "key", ShortKey(key), "error", err)
}

// quarantine moves the disk file behind key aside (falling back to removal
// if the rename fails), so a corrupt entry neither shadows its key nor
// vanishes before it can be inspected.
func (s *Store) quarantine(tc *obs.TraceContext, key, why string) {
	s.met[quarantined].Add(1)
	tc.Instant("store", "quarantine", obs.WArg{Key: "key", Val: ShortKey(key)}, obs.WArg{Key: "why", Val: why})
	tc.Logger().Warn("store entry quarantined", "key", ShortKey(key), "why", why, "fault", faults.CorruptEntry.String())
	if err := os.Rename(s.Path(key), s.QuarantinePath(key)); err != nil {
		os.Remove(s.Path(key))
	}
}

// Put encodes the entry once and stores the encoding on disk (atomically,
// via temp file + rename) and in the in-memory LRU, stamping e's checksum.
// The store does not retain e.
func (s *Store) Put(e *Entry) error {
	_, err := s.PutCtx(context.Background(), e)
	return err
}

// PutCtx is Put under a request context, emitting a "store.put" span and
// fault annotations the same way GetBytes does. It returns the entry's wire
// encoding (shared, read-only — see GetBytes) even when storing it failed,
// nil only when e cannot be encoded at all, so a caller that has the entry
// in hand can still serve it or cache it memory-only.
func (s *Store) PutCtx(ctx context.Context, e *Entry) ([]byte, error) {
	tc := obs.TraceContextFrom(ctx)
	sp := tc.Start("store", "store", "store.put", obs.WArg{Key: "key", Val: ShortKey(e.Key)})
	wire, err := s.put(tc, e)
	if err != nil {
		sp.Annotate("outcome", "error")
	} else {
		sp.Annotate("outcome", "ok")
	}
	sp.End()
	return wire, err
}

func (s *Store) put(tc *obs.TraceContext, e *Entry) ([]byte, error) {
	if !ValidKey(e.Key) {
		return nil, fmt.Errorf("store: malformed key %q", e.Key)
	}
	wire, sum, err := encodeEntry(e, false)
	if err != nil {
		return nil, err
	}
	e.Checksum = sum
	if err := s.faults.Err(faults.StoreWrite, "store put"); err != nil {
		s.noteFault(tc, "store.put", faults.StoreWrite, e.Key, err)
		return wire, err
	}
	if err := writeFileAtomic(s.Path(e.Key), wire); err != nil {
		tc.Logger().Error("store write failed", "key", ShortKey(e.Key), "error", err)
		return wire, err
	}
	s.mu.Lock()
	s.insert(e.Key, wire)
	s.mu.Unlock()
	return wire, nil
}

// lookup returns key's resident encoding, marking it most recently used.
// Caller holds s.mu.
func (s *Store) lookup(key string) ([]byte, bool) {
	el, ok := s.mem[key]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return el.Value.(resident).wire, true
}

// insert adds or refreshes key's encoding in the LRU, evicting from the back
// over the memory bound. Caller holds s.mu.
func (s *Store) insert(key string, wire []byte) {
	s.memBytes += int64(len(wire))
	if el, ok := s.mem[key]; ok {
		s.memBytes -= int64(len(el.Value.(resident).wire))
		el.Value = resident{key, wire}
		s.lru.MoveToFront(el)
		return
	}
	s.mem[key] = s.lru.PushFront(resident{key, wire})
	for s.lru.Len() > s.max {
		old := s.lru.Remove(s.lru.Back()).(resident)
		delete(s.mem, old.key)
		s.memBytes -= int64(len(old.wire))
	}
}

// MemLen returns the number of entries resident in the in-memory LRU.
func (s *Store) MemLen() int {
	n, _ := s.memUsage()
	return n
}

// memUsage returns the LRU's population and the bytes its encodings hold.
func (s *Store) memUsage() (entries int, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len(), s.memBytes
}

// GetOrCompute returns the entry for key, running compute to fill a miss
// and storing what it returns. hit reports whether the entry came from the
// cache (memory or disk) rather than from compute. Concurrent calls for one
// key each compute on a miss; errors are never cached.
//
// Storage failures degrade rather than propagate: a read error falls
// through to computation (counted as reads_degraded) and a failed disk
// write caches the computed entry in memory only (writes_degraded), so
// compute errors (and an entry that cannot be encoded) are the only errors
// GetOrCompute returns.
//
// The entry is decoded from the stored encoding, so every caller receives
// its own copy; see GetOrComputeBytes for the serving path's form.
func (s *Store) GetOrCompute(key string, compute func() (*Entry, error)) (*Entry, bool, error) {
	wire, hit, err := s.GetOrComputeBytes(context.Background(), key, compute)
	if err != nil {
		return nil, false, err
	}
	e, err := decodeWire(wire)
	return e, hit && err == nil, err
}

// GetOrComputeBytes is GetOrCompute under a request context, returning the
// wire encoding instead of a decoded entry (shared, read-only — see
// GetBytes). The embedded read and write emit store spans, and degraded
// paths log with the trace ID.
func (s *Store) GetOrComputeBytes(ctx context.Context, key string, compute func() (*Entry, error)) ([]byte, bool, error) {
	tc := obs.TraceContextFrom(ctx)
	wire, ok, err := s.GetBytes(ctx, key)
	if ok {
		return wire, true, nil
	}
	if err != nil {
		// Compute-through: the cache is broken for this read, the
		// simulation is not.
		s.met[readDegraded].Add(1)
		tc.Logger().Warn("store read degraded to compute-through", "key", ShortKey(key), "error", err)
	}
	e, err := compute()
	if err != nil {
		return nil, false, err
	}
	wire, err = s.PutCtx(ctx, e)
	if wire == nil {
		return nil, false, err
	}
	if err != nil {
		// Degrade to memory-only caching: the result is correct, only its
		// persistence failed.
		s.met[writeDegraded].Add(1)
		tc.Logger().Warn("store write degraded to memory-only", "key", ShortKey(key), "error", err)
		s.mu.Lock()
		s.insert(e.Key, wire)
		s.mu.Unlock()
	}
	return wire, false, nil
}

// writeFileAtomic writes data to path via a same-directory temp file and
// rename, so readers never observe a partial entry and a failed write
// leaves nothing behind.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		return err
	}
	return nil
}
