// Package membank reproduces Section 4's memory system microbenchmark: p
// processors hammer remote memory banks as fast as they can under three
// access patterns, and the average access time under overload is measured.
//
//   - Random: every access goes to a random word of a random remote bank —
//     the layout a QSM runtime achieves by hashing addresses.
//   - Conflict: every access goes to bank 0 — an unmitigated hot spot.
//   - NoConflict: processor i uses bank (i+1) mod B exclusively — the ideal
//     hand-placed layout available only under a more detailed model.
//
// The four machine configurations stand in for the paper's testbeds (Sun
// E5000 SMP natively and under BSPlib, a 10 Mbit Ethernet NOW under BSPlib,
// and a Cray T3E using shmem). Absolute parameters are plausible-magnitude
// stand-ins for hardware we do not have; what the experiment checks is the
// queueing behaviour — Conflict is a factor of 2-4+ worse than NoConflict,
// Random lands within tens of percent of NoConflict.
package membank

import (
	"fmt"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Pattern selects the access pattern of the microbenchmark.
type Pattern int

// Patterns.
const (
	Random Pattern = iota
	Conflict
	NoConflict
)

func (p Pattern) String() string {
	switch p {
	case Random:
		return "Random"
	case Conflict:
		return "Conflict"
	case NoConflict:
		return "NoConflict"
	}
	return fmt.Sprintf("Pattern(%d)", int(p))
}

// Config describes one memory architecture.
type Config struct {
	Name  string
	Procs int
	Banks int

	// ReqOverhead is processor work to issue one access (library software,
	// TCP stack, ...), in cycles.
	ReqOverhead sim.Time
	// WireLatency is the one-way interconnect latency, in cycles.
	WireLatency sim.Time
	// BankTime is a bank's service time per access, in cycles.
	BankTime sim.Time
	// SharedMedium serialises every access on one shared channel (the NOW's
	// 10 Mbit Ethernet) for MediumTime cycles.
	SharedMedium bool
	MediumTime   sim.Time

	// ClockMHz converts cycles to microseconds in reports.
	ClockMHz float64
}

// SMPNative models the 8-processor Sun UltraEnterprise accessed through
// hardware cache-coherent shared memory (166 MHz processors, 8 banks,
// line-interleaved).
func SMPNative() Config {
	return Config{
		Name: "SMP-NATIVE", Procs: 8, Banks: 8,
		ReqOverhead: 6, WireLatency: 30, BankTime: 55,
		ClockMHz: 166,
	}
}

// SMPBSPlib2 models the same SMP through the optimised ("level-2") BSPlib
// shared-memory layer: the hardware path plus library software per access.
func SMPBSPlib2() Config {
	c := SMPNative()
	c.Name = "SMP-BSPlib-L2"
	c.ReqOverhead = 80
	return c
}

// SMPBSPlib1 is the unoptimised ("level-1") BSPlib build: more per-access
// software, and its extra buffering moves whole buffers per access, so each
// access occupies the memory bank longer.
func SMPBSPlib1() Config {
	c := SMPNative()
	c.Name = "SMP-BSPlib-L1"
	c.ReqOverhead = 240
	c.BankTime = 130
	return c
}

// NOWBSPlib models sixteen 166 MHz UltraSPARCs running BSPlib over TCP on
// shared 10 Mbit Ethernet: one bank per node, a huge per-access software
// cost, and a shared medium that serialises every frame (a 64-byte minimum
// frame at 10 Mbit/s is ~51 us of bus occupancy).
func NOWBSPlib() Config {
	return Config{
		Name: "NOW-BSPlib", Procs: 16, Banks: 16,
		ReqOverhead: 40000, WireLatency: 2000, BankTime: 12000,
		SharedMedium: true, MediumTime: 8500,
		ClockMHz: 166,
	}
}

// CrayT3E models 32 nodes of a T3E: EV5 processors on a low-latency 3-D
// torus using the shmem library.
func CrayT3E() Config {
	return Config{
		Name: "Cray-T3E", Procs: 32, Banks: 32,
		ReqOverhead: 60, WireLatency: 120, BankTime: 30,

		ClockMHz: 450,
	}
}

// AllConfigs returns the four Figure 7 architectures (with both BSPlib
// optimisation levels for the SMP, as the paper shows).
func AllConfigs() []Config {
	return []Config{SMPNative(), SMPBSPlib2(), SMPBSPlib1(), NOWBSPlib(), CrayT3E()}
}

// Result is the measured outcome of one run.
type Result struct {
	Config   Config
	Pattern  Pattern
	Accesses int
	// AvgCycles is the mean time per access observed by a processor.
	AvgCycles float64
	// MaxBankUtil is the busiest bank's utilisation in [0,1].
	MaxBankUtil float64
}

// AvgMicros converts the mean access time to microseconds.
func (r Result) AvgMicros() float64 {
	if r.Config.ClockMHz == 0 {
		return 0
	}
	return r.AvgCycles / r.Config.ClockMHz
}

// Run executes the microbenchmark: every processor performs accessesPerProc
// synchronous remote accesses under the pattern. Deterministic in seed.
func Run(cfg Config, pat Pattern, accessesPerProc int, seed int64) Result {
	return RunObserved(cfg, pat, accessesPerProc, seed, nil)
}

// bankObs holds the per-bank and per-pattern metric handles of one observed
// run. All handles are nil-safe, so a zero bankObs is a no-op.
type bankObs struct {
	rec       *obs.Recorder
	depth     []*obs.Histogram // queued accesses ahead, per bank
	contended []*obs.Counter   // accesses that found the bank busy, per bank
	accesses  []*obs.Counter   // total accesses, per bank
	cycles    *obs.Histogram   // end-to-end access time, per arch+pattern
	pid       int
}

func newBankObs(rec *obs.Recorder, cfg Config, pat Pattern) bankObs {
	bo := bankObs{
		rec:       rec,
		depth:     make([]*obs.Histogram, cfg.Banks),
		contended: make([]*obs.Counter, cfg.Banks),
		accesses:  make([]*obs.Counter, cfg.Banks),
		pid:       int(pat),
	}
	if rec == nil {
		return bo
	}
	depthBounds := obs.LinearBuckets(0, 1, 16)
	for b := 0; b < cfg.Banks; b++ {
		labels := fmt.Sprintf("arch=%s,pattern=%s,bank=%d", cfg.Name, pat, b)
		bo.depth[b] = rec.Histogram("membank", "queue_depth", labels, depthBounds)
		bo.contended[b] = rec.Counter("membank", "contended", labels)
		bo.accesses[b] = rec.Counter("membank", "accesses", labels)
	}
	bo.cycles = rec.Histogram("membank", "access_cycles",
		fmt.Sprintf("arch=%s,pattern=%s", cfg.Name, pat),
		obs.ExpBuckets(float64(cfg.BankTime), 2, 14))
	if rec.Tracing() {
		rec.NamePid(bo.pid, cfg.Name+" "+pat.String())
		for b := 0; b < cfg.Banks; b++ {
			rec.NameTid(bo.pid, b, fmt.Sprintf("bank%d", b))
		}
		if cfg.SharedMedium {
			rec.NameTid(bo.pid, cfg.Banks, "medium")
		}
	}
	return bo
}

// observe records one access: its queue depth on arrival at the bank
// (reservations ahead of it, in service-time units), whether it contended,
// and, when tracing, a bank-occupancy span.
func (bo bankObs) observe(cfg Config, bank int, arrive, bStart, bEnd sim.Time) {
	if bo.rec == nil {
		return
	}
	depth := int64(0)
	if bStart > arrive && cfg.BankTime > 0 {
		depth = int64((bStart - arrive + cfg.BankTime - 1) / cfg.BankTime)
	}
	bo.depth[bank].Observe(float64(depth))
	bo.accesses[bank].Inc()
	if depth > 0 {
		bo.contended[bank].Inc()
	}
	if bo.rec.Tracing() {
		bo.rec.Span(bo.pid, bank, "bank", "access", uint64(bStart), uint64(bEnd),
			obs.Arg{Key: "depth", Val: depth})
	}
}

// pickFn chooses the target bank for one access, drawing from the
// processor's rng as the pattern requires. Draw count per access must not
// depend on simulated time, so the stepped and goroutine accessors consume
// the rng identically.
type pickFn func(pid int, rng *rand.Rand) int

// patternPick returns the bank chooser for a stress pattern.
func patternPick(cfg Config, pat Pattern) pickFn {
	switch pat {
	case Conflict:
		return func(int, *rand.Rand) int { return 0 }
	case NoConflict:
		return func(pid int, _ *rand.Rand) int { return (pid + 1) % cfg.Banks }
	default:
		// A random word of a random remote bank.
		return func(_ int, rng *rand.Rand) int { return rng.Intn(cfg.Banks) }
	}
}

// bench is the simulation behind one microbenchmark run: the engine, one
// Server per bank, the shared medium if the architecture has one, and the
// per-processor access-time totals the accessors fill in.
type bench struct {
	cfg    Config
	pat    Pattern
	n      int // accesses per processor
	e      *sim.Engine
	banks  []*sim.Server
	medium *sim.Server
	bo     bankObs
	totals []sim.Time
}

// newBench validates cfg and builds the engine and servers of one run of n
// accesses per processor, observed through rec when it is not nil.
func newBench(cfg Config, pat Pattern, n int, rec *obs.Recorder) *bench {
	if cfg.Procs <= 0 || cfg.Banks <= 0 {
		panic("membank: procs and banks must be positive")
	}
	b := &bench{cfg: cfg, pat: pat, n: n, e: sim.NewEngine()}
	if rec != nil {
		b.e.Observe(rec)
	}
	b.bo = newBankObs(rec, cfg, pat)
	b.banks = make([]*sim.Server, cfg.Banks)
	for i := range b.banks {
		b.banks[i] = b.e.NewServer()
	}
	if cfg.SharedMedium {
		b.medium = b.e.NewServer()
	}
	b.totals = make([]sim.Time, cfg.Procs)
	return b
}

// procSeed derives processor pid's rng seed from the run's seed.
func procSeed(seed int64, pid int) int64 {
	return int64(stats.Mix64(uint64(seed), uint64(pid)))
}

// access performs the non-blocking middle of an access — the shared medium
// (if any) and bank reservations plus their observations — at the instant
// the request issues (after ReqOverhead). It returns the time the reply
// reaches the processor.
func (b *bench) access(now sim.Time, bank int) sim.Time {
	cfg := &b.cfg
	arrive := now + cfg.WireLatency
	if b.medium != nil {
		mStart, mEnd := b.medium.UseAt(now, cfg.MediumTime)
		arrive = mEnd + cfg.WireLatency
		if b.bo.rec != nil {
			b.bo.rec.Span(b.bo.pid, cfg.Banks, "medium", "frame", uint64(mStart), uint64(mEnd))
		}
	}
	bStart, bEnd := b.banks[bank].UseAt(arrive, cfg.BankTime)
	b.bo.observe(*cfg, bank, arrive, bStart, bEnd)
	return bEnd + cfg.WireLatency
}

// stepAccessor is processor pid as a state machine: a two-state Step
// function the event loop drives directly, with no goroutine. Each access is
// one trip around stBegin (pick the bank, sleep through the issue overhead)
// and stService (make the reservations, sleep until the reply). Every rng
// draw, Server reservation and event-slot consumption happens in the same
// order as in the straight-line goroutine form kept in stepped_test.go, so
// runs are byte-identical between forms; TestSteppedMatchesGoroutine pins
// this.
func (b *bench) stepAccessor(pick pickFn, pid int) sim.StepFn {
	const (
		stBegin   = iota // at the top of the access loop (or just woken by a reply)
		stService        // woken after ReqOverhead: issue the access
	)
	state := stBegin
	first := true
	a := 0
	var start, t0 sim.Time
	var bank int
	return func(sp *sim.StepProc) sim.Status {
		switch state {
		case stBegin:
			if first {
				first = false
				start = sp.Now()
			} else {
				b.bo.cycles.Observe(float64(sp.Now() - t0))
			}
			if a == b.n {
				b.totals[pid] = sp.Now() - start
				return sim.StepDone
			}
			bank = pick(pid, sp.Rand())
			t0 = sp.Now()
			state = stService
			return sp.Sleep(b.cfg.ReqOverhead)
		default: // stService
			done := b.access(sp.Now(), bank)
			a++
			state = stBegin
			return sp.SleepUntil(done)
		}
	}
}

// run spawns one stepped processor per pid and finishes the simulation. Only
// Random picks (hot-fraction runs included) draw from a processor's rng, so
// only they pay for seeding one: Conflict and NoConflict processors get none
// and their results do not depend on seed.
func (b *bench) run(pick pickFn, seed int64) Result {
	for pid := 0; pid < b.cfg.Procs; pid++ {
		name, step := fmt.Sprintf("proc%d", pid), b.stepAccessor(pick, pid)
		if b.pat == Random {
			b.e.SpawnStepSeeded(name, procSeed(seed, pid), step)
		} else {
			b.e.SpawnStep(name, step)
		}
	}
	return b.finish()
}

// finish runs the simulation and folds the per-processor totals and bank
// busy-cycles into a Result.
func (b *bench) finish() Result {
	if err := b.e.Run(); err != nil {
		panic(err)
	}
	var sum float64
	for _, t := range b.totals {
		sum += float64(t)
	}
	avg := sum / float64(b.cfg.Procs) / float64(b.n)
	var maxUtil float64
	end := float64(b.e.Now())
	for _, bank := range b.banks {
		if end > 0 {
			if u := float64(bank.BusyCycles()) / end; u > maxUtil {
				maxUtil = u
			}
		}
	}
	return Result{Config: b.cfg, Pattern: b.pat, Accesses: b.n, AvgCycles: avg, MaxBankUtil: maxUtil}
}

// RunObserved is Run with an observability recorder (nil behaves exactly
// like Run): per-bank queue-depth histograms, contention counters, an
// end-to-end access-time histogram, and bank-occupancy trace spans keyed by
// pattern so Random, Conflict and NoConflict render as separate processes.
func RunObserved(cfg Config, pat Pattern, accessesPerProc int, seed int64, rec *obs.Recorder) Result {
	return newBench(cfg, pat, accessesPerProc, rec).run(patternPick(cfg, pat), seed)
}

// RunAll measures every pattern on cfg.
func RunAll(cfg Config, accessesPerProc int, seed int64) []Result {
	return RunAllObserved(cfg, accessesPerProc, seed, nil)
}

// RunAllObserved is RunAll with an observability recorder (nil behaves
// exactly like RunAll).
func RunAllObserved(cfg Config, accessesPerProc int, seed int64, rec *obs.Recorder) []Result {
	out := make([]Result, 0, 3)
	for _, pat := range []Pattern{Random, Conflict, NoConflict} {
		out = append(out, RunObserved(cfg, pat, accessesPerProc, seed, rec))
	}
	return out
}

// hotPick targets bank 0 with probability hotFrac and a uniformly random
// bank otherwise. Both draws happen on every access so the rng stream is
// pattern-shaped only by hotFrac, not by which branch wins.
func hotPick(cfg Config, hotFrac float64) pickFn {
	return func(_ int, rng *rand.Rand) int {
		bank := rng.Intn(cfg.Banks)
		if rng.Float64() < hotFrac {
			bank = 0
		}
		return bank
	}
}

// RunHotFraction runs the microbenchmark with a partial hot spot: each
// access targets bank 0 with probability hotFrac and a uniformly random
// bank otherwise — the paper's closing caveat that real programs are less
// concurrent than the stress patterns. Deterministic in seed.
func RunHotFraction(cfg Config, hotFrac float64, accessesPerProc int, seed int64) Result {
	if hotFrac < 0 || hotFrac > 1 {
		panic("membank: hotFrac must be in [0,1]")
	}
	return newBench(cfg, Random, accessesPerProc, nil).run(hotPick(cfg, hotFrac), seed)
}
