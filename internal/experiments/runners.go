package experiments

import (
	"repro/internal/algorithms"
	"repro/internal/machine"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/qsmlib"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The measurement helpers here come in two layers: *Once functions run one
// simulation on a machine the job builds itself (safe to execute on any
// worker), and run* functions fan the repetitions of one sweep point across
// the pool and aggregate them in run order, so their averages match the old
// serial loops bit for bit.

// measured is an averaged simulation measurement, in cycles.
type measured struct {
	Total float64 // end-to-end running time
	Comm  float64 // bottleneck node's communication time
}

func avgMeasured(ms []measured) measured {
	var t, c []float64
	for _, m := range ms {
		t = append(t, m.Total)
		c = append(c, m.Comm)
	}
	return measured{Total: stats.Mean(t), Comm: stats.Mean(c)}
}

func blockInput(all []int64, n int) func(id, p int) []int64 {
	return func(id, p int) []int64 {
		lo, hi := workload.Partition(n, p, id)
		return all[lo:hi]
	}
}

// prefixOnce runs the prefix-sums program once on its own machine.
func prefixOnce(net machine.NetParams, n, p int, seed int64, rec *obs.Recorder) measured {
	in := workload.UniformInts(n, 1000, seed)
	alg := algorithms.PrefixSums{N: n, Input: blockInput(in, n)}
	m := qsmlib.New(p, qsmlib.Options{Net: net, Seed: seed, Obs: rec})
	if err := m.Run(alg.Program()); err != nil {
		panic(err)
	}
	st := m.RunStats()
	return measured{Total: float64(st.TotalCycles), Comm: float64(st.MaxComm())}
}

// sortRun is a sample-sort measurement with its observed skews: one run's
// values, or the run-order average of several.
type sortRun struct {
	measured
	B    float64
	R    float64
	OutW float64
}

// sortOnce runs the sample-sort program once on its own machine.
func sortOnce(net machine.NetParams, n, p int, seed int64, rec *obs.Recorder) sortRun {
	in := workload.UniformInts(n, 0, seed)
	skew := algorithms.NewSortSkew(p)
	alg := algorithms.SampleSort{N: n, Input: blockInput(in, n), Skew: skew}
	m := qsmlib.New(p, qsmlib.Options{Net: net, Seed: seed, Obs: rec})
	if err := m.Run(alg.Program()); err != nil {
		panic(err)
	}
	st := m.RunStats()
	return sortRun{
		measured: measured{Total: float64(st.TotalCycles), Comm: float64(st.MaxComm())},
		B:        float64(skew.B()),
		R:        skew.R(),
		OutW:     float64(skew.OutW()),
	}
}

// avgSort averages per-run samples in run order.
func avgSort(ss []sortRun) sortRun {
	var ms []measured
	var bs, rs, ows []float64
	for _, s := range ss {
		ms = append(ms, s.measured)
		bs = append(bs, s.B)
		rs = append(rs, s.R)
		ows = append(ows, s.OutW)
	}
	return sortRun{measured: avgMeasured(ms), B: stats.Mean(bs), R: stats.Mean(rs), OutW: stats.Mean(ows)}
}

// runSort measures the sample-sort program, fanning runs across par workers,
// returning the run average and the average observed skews.
func runSort(net machine.NetParams, n, p, runs int, seed int64, par int) sortRun {
	return avgSort(parMap(par, runs, func(r int) sortRun {
		return sortOnce(net, n, p, seed+int64(r), nil)
	}))
}

// sortSkewOf converts a measurement's averaged skews into model inputs.
func sortSkewOf(sr sortRun) models.SortSkews {
	return models.SortSkews{B: sr.B, R: sr.R, OutW: sr.OutW}
}

// rankRun is a list-ranking measurement with its observed compression: one
// run's values, or the run-order average of several.
type rankRun struct {
	measured
	X []float64 // per-iteration max active counts, averaged over runs
	Z float64
}

// rankOnce runs the list-ranking program once on its own machine.
func rankOnce(net machine.NetParams, n, p, iters int, seed int64, rec *obs.Recorder) rankRun {
	l := workload.RandomList(n, seed)
	tr := algorithms.NewRankTrace(p, iters)
	alg := algorithms.ListRank{List: l, Trace: tr}
	m := qsmlib.New(p, qsmlib.Options{Net: net, Seed: seed, Obs: rec})
	if err := m.Run(alg.Program()); err != nil {
		panic(err)
	}
	st := m.RunStats()
	return rankRun{
		measured: measured{Total: float64(st.TotalCycles), Comm: float64(st.MaxComm())},
		X:        tr.X(),
		Z:        tr.Z(),
	}
}

// avgRank averages per-run samples in run order.
func avgRank(ss []rankRun) rankRun {
	iters := len(ss[0].X)
	xs := make([]float64, iters)
	var zs []float64
	var ms []measured
	for _, s := range ss {
		ms = append(ms, s.measured)
		for i, x := range s.X {
			xs[i] += x
		}
		zs = append(zs, s.Z)
	}
	for i := range xs {
		xs[i] /= float64(len(ss))
	}
	return rankRun{measured: avgMeasured(ms), X: xs, Z: stats.Mean(zs)}
}
