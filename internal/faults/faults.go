// Package faults is a deterministic, seed-driven fault-injection layer for
// the qsmd serving stack. The store, scheduler, and HTTP layer each accept
// an optional *Injector and consult it at their fault sites: store read and
// write I/O, cache-entry bytes coming off disk, the worker compute path
// (panics and artificial slowness), and HTTP responses (5xx and dropped
// connections).
//
// Decisions are a pure function of (seed, fault class, per-class decision
// sequence number): class c fires on every Rule.Every-th consultation, at a
// seeded phase offset, until Rule.Max fires have been injected. A schedule
// is therefore randomized by its seed but exactly reproducible from it, and
// every class's budget is bounded, so a system under injection that retries
// and degrades correctly must eventually converge to the fault-free answer.
// The chaos harness (chaos_test.go) runs experiment sweeps under such
// schedules and asserts the final tables are byte-identical to a fault-free
// run — extending the repo's determinism guarantee from "parallelism doesn't
// change results" to "failures don't change results".
//
// Every injection is counted per class and exported as the
// faults/injected{class=...} counters, so tests and operators can assert
// which fault classes a run actually exercised. The nil *Injector is valid
// and injects nothing; all methods are nil-safe, letting production code
// wire the hooks unconditionally.
package faults

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// Class enumerates the fault sites the stack consults.
type Class int

const (
	// StoreRead injects an I/O error on a cache read.
	StoreRead Class = iota
	// StoreWrite injects an I/O error on a cache write.
	StoreWrite
	// CorruptEntry corrupts cache-entry bytes read from disk (truncation or
	// a byte flip), exercising checksum-on-read and quarantine.
	CorruptEntry
	// WorkerPanic panics inside the service compute path.
	WorkerPanic
	// SlowJob stalls the compute path by Rule.Delay, exercising per-job
	// timeouts and retries.
	SlowJob
	// HTTPError replaces an HTTP response with a 503.
	HTTPError
	// HTTPDrop aborts an HTTP response mid-flight (connection reset).
	HTTPDrop
	// PeerDown fails a cluster peer request before it is sent, as if the
	// peer's node were unreachable, exercising failover to replica owners
	// and local fallback compute.
	PeerDown
	// PeerSlow stalls a cluster peer request by Rule.Delay before sending
	// it, exercising slow-peer timeouts and health detection.
	PeerSlow
	// StreamDrop aborts an event-stream connection mid-stream (between two
	// event writes), exercising client Last-Event-ID resume.
	StreamDrop
	// StreamStall stalls an event-stream write by Rule.Delay, exercising
	// slow-consumer backpressure and heartbeat liveness.
	StreamStall

	numClasses
)

var classNames = [numClasses]string{
	StoreRead:    "store_read",
	StoreWrite:   "store_write",
	CorruptEntry: "corrupt_entry",
	WorkerPanic:  "worker_panic",
	SlowJob:      "slow_job",
	HTTPError:    "http_error",
	HTTPDrop:     "http_drop",
	PeerDown:     "peer_down",
	PeerSlow:     "peer_slow",
	StreamDrop:   "stream_drop",
	StreamStall:  "stream_stall",
}

func (c Class) String() string {
	if c < 0 || c >= numClasses {
		return fmt.Sprintf("faults.Class(%d)", int(c))
	}
	return classNames[c]
}

// Classes lists every fault class, for iteration in tests and tooling.
func Classes() []Class {
	cs := make([]Class, numClasses)
	for i := range cs {
		cs[i] = Class(i)
	}
	return cs
}

// DefaultSlowDelay stalls a slow job when its rule carries no delay.
const DefaultSlowDelay = 25 * time.Millisecond

// Rule schedules one fault class.
type Rule struct {
	// Every fires the fault on every Every-th consultation of this class's
	// site (at a phase offset derived from the injector seed); <= 0 disables
	// the class.
	Every int
	// Max caps the total number of injections; <= 0 means unlimited. Bounded
	// budgets are what let a retrying system converge, so chaos schedules
	// should always set one.
	Max int
	// Delay is how long SlowJob, PeerSlow, and StreamStall stall; zero
	// means DefaultSlowDelay. Other classes ignore it.
	Delay time.Duration
}

// Config seeds an Injector.
type Config struct {
	// Seed drives every phase offset and corruption draw; the same seed and
	// rules reproduce the same schedule.
	Seed int64
	// Rules maps each enabled class to its schedule; absent classes never
	// fire.
	Rules map[Class]Rule
}

// InjectedError is the error every injected I/O fault surfaces as, so tests
// can tell injected failures from real ones with errors.As.
type InjectedError struct {
	Class Class
	// Site describes the consulting call site ("store get", ...).
	Site string
	// N is the 1-based injection count of this class when it fired.
	N uint64
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected %s fault #%d at %s", e.Class, e.N, e.Site)
}

// Injector makes deterministic fault decisions. All methods are safe for
// concurrent use and on a nil receiver (which never injects).
type Injector struct {
	mu    sync.Mutex
	seed  int64
	rules [numClasses]Rule
	off   [numClasses]uint64 // seeded phase offset into the Every cycle
	seq   [numClasses]uint64 // consultations so far
	fired [numClasses]uint64 // injections so far
}

// New builds an injector for the config. A nil rule map yields an injector
// that never fires but still counts zero for every class.
func New(cfg Config) *Injector {
	inj := &Injector{seed: cfg.Seed}
	for c := Class(0); c < numClasses; c++ {
		r, ok := cfg.Rules[c]
		if !ok || r.Every <= 0 {
			continue
		}
		inj.rules[c] = r
		inj.off[c] = stats.Mix64(uint64(cfg.Seed), uint64(c)) % uint64(r.Every)
	}
	return inj
}

// fire decides one consultation of class c under the lock, returning whether
// the fault fires, its 1-based injection number, and a per-injection draw
// for decisions like corruption position.
func (inj *Injector) fire(c Class) (bool, uint64, uint64) {
	if inj == nil {
		return false, 0, 0
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	r := inj.rules[c]
	if r.Every <= 0 {
		return false, 0, 0
	}
	seq := inj.seq[c]
	inj.seq[c]++
	if r.Max > 0 && inj.fired[c] >= uint64(r.Max) {
		return false, 0, 0
	}
	if seq%uint64(r.Every) != inj.off[c] {
		return false, 0, 0
	}
	inj.fired[c]++
	return true, inj.fired[c], stats.Mix64(uint64(inj.seed)+uint64(c), inj.fired[c])
}

// Fire consults class c once and reports whether the fault fires.
func (inj *Injector) Fire(c Class) bool {
	fired, _, _ := inj.fire(c)
	return fired
}

// Err consults class c once and returns an *InjectedError when it fires,
// nil otherwise. site labels the consulting call site in the error text.
func (inj *Injector) Err(c Class, site string) error {
	fired, n, _ := inj.fire(c)
	if !fired {
		return nil
	}
	return &InjectedError{Class: c, Site: site, N: n}
}

// CorruptBytes consults CorruptEntry once and, when it fires, returns a
// corrupted copy of data: odd draws truncate it, even draws flip one byte.
// Otherwise (and always on empty data) it returns data unchanged.
func (inj *Injector) CorruptBytes(data []byte) []byte {
	fired, _, draw := inj.fire(CorruptEntry)
	if !fired || len(data) == 0 {
		return data
	}
	out := append([]byte(nil), data...)
	if draw&1 == 1 {
		return out[:len(out)/2]
	}
	out[int(draw%uint64(len(out)))] ^= 0x42
	return out
}

// SlowDelay consults SlowJob once and returns the injected stall duration,
// or zero when the class does not fire.
func (inj *Injector) SlowDelay() time.Duration {
	return inj.Delay(SlowJob)
}

// Delay consults a stall-shaped class (SlowJob, PeerSlow, StreamStall) once
// and returns the injected stall duration, or zero when the class does not
// fire. A rule without a delay stalls DefaultSlowDelay.
func (inj *Injector) Delay(c Class) time.Duration {
	fired, _, _ := inj.fire(c)
	if !fired {
		return 0
	}
	inj.mu.Lock()
	d := inj.rules[c].Delay
	inj.mu.Unlock()
	if d <= 0 {
		d = DefaultSlowDelay
	}
	return d
}

// Count returns how many faults of class c have been injected so far.
func (inj *Injector) Count(c Class) uint64 {
	if inj == nil {
		return 0
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.fired[c]
}

// Metrics returns a point-in-time snapshot of the injection counts as an
// obs registry: one faults/injected counter per class, none for the nil
// injector. The snapshot is private to the caller and safe to read while
// injection continues.
func (inj *Injector) Metrics() *obs.Recorder {
	snap := obs.New(obs.Config{Metrics: true})
	if inj == nil {
		return snap
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	for c := Class(0); c < numClasses; c++ {
		snap.Counter("faults", "injected", "class="+c.String()).Add(inj.fired[c])
	}
	return snap
}

// WriteMetricsText dumps the injection counters in Prometheus text format.
func (inj *Injector) WriteMetricsText(w io.Writer) error {
	return inj.Metrics().WritePrometheusText(w)
}

// ParseRules parses a compact schedule spec: comma-separated
// "class:every:max[:delay]" clauses, where class is a Class name
// (store_read, store_write, corrupt_entry, worker_panic, slow_job,
// http_error, http_drop, peer_down, peer_slow, stream_drop, stream_stall)
// or "all" to apply one rule to every class, and delay (slow_job,
// peer_slow, and stream_stall) is a Go duration. Example:
//
//	store_read:3:2,slow_job:4:1:50ms,http_error:5:2
func ParseRules(spec string) (map[Class]Rule, error) {
	rules := map[Class]Rule{}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		parts := strings.Split(clause, ":")
		if len(parts) < 3 || len(parts) > 4 {
			return nil, fmt.Errorf("faults: clause %q is not class:every:max[:delay]", clause)
		}
		every, err := strconv.Atoi(parts[1])
		if err != nil || every <= 0 {
			return nil, fmt.Errorf("faults: clause %q: every must be a positive integer", clause)
		}
		max, err := strconv.Atoi(parts[2])
		if err != nil || max < 0 {
			return nil, fmt.Errorf("faults: clause %q: max must be a non-negative integer", clause)
		}
		r := Rule{Every: every, Max: max}
		if len(parts) == 4 {
			d, err := time.ParseDuration(parts[3])
			if err != nil {
				return nil, fmt.Errorf("faults: clause %q: bad delay: %v", clause, err)
			}
			r.Delay = d
		}
		if parts[0] == "all" {
			for c := Class(0); c < numClasses; c++ {
				rules[c] = r
			}
			continue
		}
		cls, ok := classByName(parts[0])
		if !ok {
			return nil, fmt.Errorf("faults: unknown class %q (have %v or all)", parts[0], classNames)
		}
		rules[cls] = r
	}
	return rules, nil
}

func classByName(name string) (Class, bool) {
	for c := Class(0); c < numClasses; c++ {
		if classNames[c] == name {
			return c, true
		}
	}
	return 0, false
}

// FromSpec builds an injector from a seed and a ParseRules spec string. An
// empty spec returns a nil injector (no injection anywhere).
func FromSpec(seed int64, spec string) (*Injector, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	rules, err := ParseRules(spec)
	if err != nil {
		return nil, err
	}
	return New(Config{Seed: seed, Rules: rules}), nil
}
