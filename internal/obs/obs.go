// Package obs is the simulator's observability layer: a metrics registry
// (counters, gauges, fixed-bucket histograms keyed by subsystem, name and
// labels) and sim-time span tracing exportable as Chrome trace-event JSON
// (loadable in Perfetto or chrome://tracing).
//
// The layer is built to cost nothing when disabled. Instrumented code holds
// typed handles (*Counter, *Gauge, *Histogram) resolved once at setup; every
// method is safe on a nil receiver, so with no recorder attached each hook
// compiles to a single predictable nil-check branch — no allocation, no map
// lookup, no time perturbation. A nil *Recorder likewise returns nil from
// every constructor, letting whole layers be wired unconditionally.
//
// Recorders are single-goroutine by design: each simulation run owns its
// own Recorder (the experiment runner hands one to every (sweep-point, run)
// job), and a Sink merges them afterwards in deterministic index order, so
// aggregated output is byte-identical at any parallelism level. They stay
// that way. A concurrent owner, such as the serving tier's scheduler, store
// or cluster node, counts in atomic fields of its own and copies them into
// a throwaway Recorder when scraped; the one Recorder shared under a lock
// is the scheduler's job-latency histogram.
package obs

import (
	"io"
	"sort"
	"strconv"

	"repro/internal/jsonbytes"
)

// Config selects which facilities a Recorder carries.
type Config struct {
	// Metrics enables the counter/gauge/histogram registry.
	Metrics bool
	// Trace enables sim-time span collection for Chrome trace export.
	Trace bool
	// MaxTraceEvents caps the trace buffer; excess spans are counted as
	// dropped rather than silently discarded. Zero means DefaultMaxTraceEvents.
	MaxTraceEvents int
}

// DefaultMaxTraceEvents bounds a trace at ~1M spans (a few hundred MB of
// JSON) unless configured otherwise.
const DefaultMaxTraceEvents = 1 << 20

// Recorder collects metrics and trace spans for one simulation run. The nil
// Recorder is valid and records nothing.
type Recorder struct {
	reg   *Registry
	trace *Trace
}

// New creates a Recorder with the facilities cfg enables. A config enabling
// nothing still returns a non-nil (but inert) Recorder.
func New(cfg Config) *Recorder {
	r := &Recorder{}
	if cfg.Metrics {
		r.reg = newRegistry()
	}
	if cfg.Trace {
		max := cfg.MaxTraceEvents
		if max <= 0 {
			max = DefaultMaxTraceEvents
		}
		r.trace = &Trace{max: max}
	}
	return r
}

// Key identifies one metric series.
type Key struct {
	Subsystem string
	Name      string
	// Labels is a pre-rendered "k=v,k=v" string (possibly empty); keeping it
	// flat makes the key comparable and the hot path allocation-free.
	Labels string
}

func keyLess(a, b Key) bool {
	if a.Subsystem != b.Subsystem {
		return a.Subsystem < b.Subsystem
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	return a.Labels < b.Labels
}

// Counter accumulates a monotonic count. Methods are nil-safe.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d.
func (c *Counter) Add(d uint64) {
	if c != nil {
		c.v += d
	}
}

// Value returns the accumulated count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge tracks a current value and its high-water mark. Methods are
// nil-safe.
type Gauge struct{ v, max int64 }

// Set records the current value, updating the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Add shifts the current value by d.
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.Set(g.v + d)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Max returns the high-water mark (0 on nil).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max
}

// Histogram counts observations into fixed buckets with inclusive upper
// bounds (Prometheus "le" semantics); values above the last bound land in an
// overflow bucket. Methods are nil-safe.
type Histogram struct {
	bounds   []float64 // ascending upper bounds; counts[i] holds v <= bounds[i]
	counts   []uint64  // len(bounds)+1; the last entry is the overflow bucket
	sum      float64
	n        uint64
	min, max float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the average observed value, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// BucketCount returns the count of bucket i, where i == len(bounds) is the
// overflow bucket.
func (h *Histogram) BucketCount(i int) uint64 {
	if h == nil {
		return 0
	}
	return h.counts[i]
}

// ExpBuckets returns n exponentially spaced bounds: start, start*factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// LinearBuckets returns n linearly spaced bounds: start, start+step, ...
func LinearBuckets(start, step float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*step
	}
	return b
}

// Registry holds one run's metric series.
type Registry struct {
	counters map[Key]*Counter
	gauges   map[Key]*Gauge
	hists    map[Key]*Histogram
}

func newRegistry() *Registry {
	return &Registry{
		counters: map[Key]*Counter{},
		gauges:   map[Key]*Gauge{},
		hists:    map[Key]*Histogram{},
	}
}

// Counter resolves (creating if absent) the counter for the key. Returns nil
// when the recorder is nil or metrics are disabled, so the handle can be used
// unconditionally.
func (r *Recorder) Counter(subsystem, name, labels string) *Counter {
	if r == nil || r.reg == nil {
		return nil
	}
	k := Key{subsystem, name, labels}
	c := r.reg.counters[k]
	if c == nil {
		c = &Counter{}
		r.reg.counters[k] = c
	}
	return c
}

// Gauge resolves (creating if absent) the gauge for the key; nil when
// metrics are disabled.
func (r *Recorder) Gauge(subsystem, name, labels string) *Gauge {
	if r == nil || r.reg == nil {
		return nil
	}
	k := Key{subsystem, name, labels}
	g := r.reg.gauges[k]
	if g == nil {
		g = &Gauge{}
		r.reg.gauges[k] = g
	}
	return g
}

// Histogram resolves (creating if absent) the histogram for the key; bounds
// apply only on first creation. Nil when metrics are disabled.
func (r *Recorder) Histogram(subsystem, name, labels string, bounds []float64) *Histogram {
	if r == nil || r.reg == nil {
		return nil
	}
	k := Key{subsystem, name, labels}
	h := r.reg.hists[k]
	if h == nil {
		h = &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
		r.reg.hists[k] = h
	}
	return h
}

// FindHistogram returns an existing histogram or nil; it never creates one.
func (r *Recorder) FindHistogram(subsystem, name, labels string) *Histogram {
	if r == nil || r.reg == nil {
		return nil
	}
	return r.reg.hists[Key{subsystem, name, labels}]
}

// FindCounter returns an existing counter or nil; it never creates one.
func (r *Recorder) FindCounter(subsystem, name, labels string) *Counter {
	if r == nil || r.reg == nil {
		return nil
	}
	return r.reg.counters[Key{subsystem, name, labels}]
}

// Merge folds other into r: counters and histogram buckets add, gauges keep
// the maximum of current values and of high-water marks. Merging in a fixed
// order (as Sink.Merged does) makes float sums deterministic.
func (r *Recorder) Merge(other *Recorder) {
	if r == nil || other == nil {
		return
	}
	if r.reg != nil && other.reg != nil {
		r.reg.merge(other.reg)
	}
	if r.trace != nil && other.trace != nil {
		r.trace.merge(other.trace)
	}
}

func (reg *Registry) merge(o *Registry) {
	for k, c := range o.counters {
		dst := reg.counters[k]
		if dst == nil {
			dst = &Counter{}
			reg.counters[k] = dst
		}
		dst.v += c.v
	}
	for k, g := range o.gauges {
		dst := reg.gauges[k]
		if dst == nil {
			dst = &Gauge{}
			reg.gauges[k] = dst
		}
		if g.v > dst.v {
			dst.v = g.v
		}
		if g.max > dst.max {
			dst.max = g.max
		}
	}
	for k, h := range o.hists {
		dst := reg.hists[k]
		if dst == nil {
			dst = &Histogram{bounds: append([]float64(nil), h.bounds...), counts: make([]uint64, len(h.counts))}
			reg.hists[k] = dst
		}
		for i, c := range h.counts {
			dst.counts[i] += c
		}
		if h.n > 0 {
			if dst.n == 0 || h.min < dst.min {
				dst.min = h.min
			}
			if dst.n == 0 || h.max > dst.max {
				dst.max = h.max
			}
		}
		dst.sum += h.sum
		dst.n += h.n
	}
}

// WriteMetricsJSON writes the registry snapshot as indented JSON with series
// sorted by key, newline-terminated. A recorder without metrics writes an
// empty snapshot. On an error (a NaN or infinite histogram value, which JSON
// cannot carry) nothing is written.
func (r *Recorder) WriteMetricsJSON(w io.Writer) error {
	compact, err := r.AppendMetricsJSON(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(jsonbytes.Indent(compact))
	return err
}

// AppendMetricsJSON appends the registry snapshot as compact JSON: counters,
// gauges and histograms, each sorted by (subsystem, name, labels). It is the
// bytes encoding/json writes for the snapshot, which WriteMetricsJSON
// indents; a result store entry carries it as is.
func (r *Recorder) AppendMetricsJSON(dst []byte) ([]byte, error) {
	reg := &Registry{}
	if r != nil && r.reg != nil {
		reg = r.reg
	}
	dst = append(dst, `{"counters":[`...)
	for i, k := range sortedKeys(len(reg.counters), func(add func(Key)) {
		for k := range reg.counters {
			add(k)
		}
	}) {
		dst = appendSeriesKey(dst, i, k)
		dst = append(dst, `,"value":`...)
		dst = strconv.AppendUint(dst, reg.counters[k].v, 10)
		dst = append(dst, '}')
	}
	dst = append(dst, `],"gauges":[`...)
	for i, k := range sortedKeys(len(reg.gauges), func(add func(Key)) {
		for k := range reg.gauges {
			add(k)
		}
	}) {
		g := reg.gauges[k]
		dst = appendSeriesKey(dst, i, k)
		dst = append(dst, `,"value":`...)
		dst = strconv.AppendInt(dst, g.v, 10)
		dst = append(dst, `,"max":`...)
		dst = strconv.AppendInt(dst, g.max, 10)
		dst = append(dst, '}')
	}
	dst = append(dst, `],"histograms":[`...)
	for i, k := range sortedKeys(len(reg.hists), func(add func(Key)) {
		for k := range reg.hists {
			add(k)
		}
	}) {
		var err error
		if dst, err = appendHistogram(appendSeriesKey(dst, i, k), reg.hists[k]); err != nil {
			return nil, err
		}
	}
	return append(dst, "]}"...), nil
}

// appendSeriesKey opens the i-th object of a series array with its key
// fields; labels are omitted when empty.
func appendSeriesKey(dst []byte, i int, k Key) []byte {
	if i > 0 {
		dst = append(dst, ',')
	}
	dst = append(dst, `{"subsystem":`...)
	dst = jsonbytes.AppendString(dst, k.Subsystem)
	dst = append(dst, `,"name":`...)
	dst = jsonbytes.AppendString(dst, k.Name)
	if k.Labels != "" {
		dst = append(dst, `,"labels":`...)
		dst = jsonbytes.AppendString(dst, k.Labels)
	}
	return dst
}

// appendHistogram writes the rest of a histogram series after its key.
func appendHistogram(dst []byte, h *Histogram) ([]byte, error) {
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendUint(dst, h.n, 10)
	var err error
	for _, f := range [...]struct {
		name string
		v    float64
	}{{`,"sum":`, h.sum}, {`,"min":`, h.min}, {`,"max":`, h.max}} {
		if dst, err = jsonbytes.AppendFloat(append(dst, f.name...), f.v); err != nil {
			return nil, err
		}
	}
	dst = append(dst, `,"buckets":[`...)
	for i, le := range h.bounds {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = jsonbytes.AppendFloat(append(dst, `{"le":`...), le); err != nil {
			return nil, err
		}
		dst = append(dst, `,"count":`...)
		dst = strconv.AppendUint(dst, h.counts[i], 10)
		dst = append(dst, '}')
	}
	dst = append(dst, `],"overflow":`...)
	dst = strconv.AppendUint(dst, h.counts[len(h.bounds)], 10)
	return append(dst, '}'), nil
}

func sortedKeys(n int, visit func(add func(Key))) []Key {
	keys := make([]Key, 0, n)
	visit(func(k Key) { keys = append(keys, k) })
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	return keys
}
