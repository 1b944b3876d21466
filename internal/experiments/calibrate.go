package experiments

import (
	"runtime"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/qsmlib"
	"repro/internal/sim"
)

// MachineCalib holds the observed (hardware + software) network constants of
// a simulated machine configuration — the "Observed Performance" column of
// Table 3 — which parameterise the prediction lines.
type MachineCalib struct {
	Net machine.NetParams

	PutGapPB float64 // observed put cycles per byte, bulk transfers
	GetGapPB float64 // observed get cycles per byte, bulk transfers
	// GetWordGapPB and PutWordGapPB are the observed cycles per byte of
	// word-granularity scattered accesses (the access mode behind the
	// paper's 287 c/B get figure, and the traffic list ranking generates).
	GetWordGapPB float64
	PutWordGapPB float64
	LBarrier     float64 // 16-node empty-sync cost (plan + barrier), cycles
}

// Calib converts the measurements into model constants for p processors,
// with the bulk-transfer gap (right for algorithms that move contiguous
// ranges, like sample sort).
func (mc MachineCalib) Calib(p int) models.Calib {
	return models.Calib{
		P:     p,
		GWord: 8 * (mc.PutGapPB + mc.GetGapPB) / 2,
		L:     mc.LBarrier,
		Lat:   float64(mc.Net.Latency),
		O:     float64(mc.Net.SendOverhead),
	}
}

// ScatterCalib is Calib with the word-granularity gap, the right constant
// for irregular algorithms whose every access is a scattered single word
// (list ranking).
func (mc MachineCalib) ScatterCalib(p int) models.Calib {
	c := mc.Calib(p)
	c.GWord = 8 * (mc.GetWordGapPB + mc.PutWordGapPB) / 2
	return c
}

// bulkComm measures the bottleneck communication cycles of moving `words`
// words to (put) or from (get) a remote node through the library.
func bulkComm(net machine.NetParams, words int, get bool, seed int64) sim.Time {
	m := qsmlib.New(2, qsmlib.Options{Net: net, Seed: seed})
	err := m.Run(func(ctx core.Ctx) {
		h := ctx.Register("calib", 2*words)
		ctx.Sync()
		buf := make([]int64, words)
		if ctx.ID() == 0 {
			if get {
				ctx.Get(h, words, buf) // node 1's partition
			} else {
				ctx.Put(h, words, buf)
			}
		}
		ctx.Sync()
	})
	if err != nil {
		panic(err)
	}
	return m.RunStats().MaxComm()
}

// wordComm measures scattered word-granularity accesses under a symmetric
// load: every node of a 16-node machine gets (or puts) `words` scattered
// single words of its ring successor's partition, all at once. The symmetry
// matters: serving incoming requests overlaps with waiting for one's own
// replies, exactly as in a real irregular phase.
func wordComm(net machine.NetParams, words int, get bool, seed int64) sim.Time {
	const p = 16
	m := qsmlib.New(p, qsmlib.Options{Net: net, Seed: seed})
	err := m.Run(func(ctx core.Ctx) {
		h := ctx.Register("calibw", p*words)
		ctx.Sync()
		peer := (ctx.ID() + 1) % p
		// Scattered within the peer's partition: 7919 is prime and divides
		// neither probe size, so gcd(7919, words) = 1 and i*7919 mod words
		// visits every offset exactly once for i < words.
		idx := make([]int, words)
		for i := range idx {
			idx[i] = peer*words + (i*7919)%words
		}
		if get {
			ctx.GetIndexed(h, idx, make([]int64, len(idx)))
		} else {
			ctx.PutIndexed(h, idx, make([]int64, len(idx)))
		}
		ctx.Sync()
	})
	if err != nil {
		panic(err)
	}
	return m.RunStats().MaxComm()
}

// emptySyncCost measures the fixed per-phase cost at p nodes.
func emptySyncCost(net machine.NetParams, p int, seed int64) sim.Time {
	m := qsmlib.New(p, qsmlib.Options{Net: net, Seed: seed})
	const phases = 4
	err := m.Run(func(ctx core.Ctx) {
		for i := 0; i < phases; i++ {
			ctx.Sync()
		}
	})
	if err != nil {
		panic(err)
	}
	return m.RunStats().TotalCycles / phases
}

// Calibrate measures the observed network constants of a configuration,
// fanning the nine independent calibration simulations across par workers.
// par handling matches Options.Parallelism defaulting: par <= 0 means one
// worker per GOMAXPROCS. The probes are wildly uneven — the four
// 16-node wordComm probes dominate the two-node bulk transfers — so each
// carries a cost hint and the scheduler starts the heavy ones first. The
// per-byte gaps are slopes between two transfer sizes, cancelling fixed
// per-sync costs.
func Calibrate(net machine.NetParams, seed int64, par int) MachineCalib {
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	const w1, w2 = 20000, 60000
	const s1, s2 = 5000, 15000
	probes := []struct {
		cost float64
		fn   func() sim.Time
	}{
		{1, func() sim.Time { return bulkComm(net, w1, false, seed) }},
		{3, func() sim.Time { return bulkComm(net, w2, false, seed) }},
		{1, func() sim.Time { return bulkComm(net, w1, true, seed) }},
		{3, func() sim.Time { return bulkComm(net, w2, true, seed) }},
		{30, func() sim.Time { return wordComm(net, s1, true, seed) }},
		{90, func() sim.Time { return wordComm(net, s2, true, seed) }},
		{30, func() sim.Time { return wordComm(net, s1, false, seed) }},
		{90, func() sim.Time { return wordComm(net, s2, false, seed) }},
		{5, func() sim.Time { return emptySyncCost(net, 16, seed) }},
	}
	c := parMapCost(par, len(probes),
		func(i int) float64 { return probes[i].cost },
		func(i int) sim.Time { return probes[i].fn() })
	slope := func(c1, c2 sim.Time, b1, b2 int) float64 {
		return float64(c2-c1) / float64(8*(b2-b1))
	}
	return MachineCalib{
		Net:          net,
		PutGapPB:     slope(c[0], c[1], w1, w2),
		GetGapPB:     slope(c[2], c[3], w1, w2),
		GetWordGapPB: slope(c[4], c[5], s1, s2),
		PutWordGapPB: slope(c[6], c[7], s1, s2),
		LBarrier:     float64(c[8]),
	}
}
