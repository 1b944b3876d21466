package algorithms

import (
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/workload"
)

// ListRank is the appendix's listrank: randomized independent-set
// elimination. For c*log2(p) iterations every active element flips a random
// bit; an element that flipped 1 whose successor flipped 0 splices itself
// out of the doubly-linked list, folding its link weight into its
// successor. The surviving sublist is gathered on processor 0, ranked
// sequentially, and the eliminated elements are re-inserted in reverse
// order. Ranks (head = 0) appear in the shared array "rank.R".
//
// Phase count: with the flip generation of iteration t+1 merged into the
// splice phase of iteration t, the main loop costs two phases per
// iteration, matching the paper's pi = 4 + 16*log p for c = 4.
type ListRank struct {
	List *workload.List
	// C is the elimination-round multiplier: C*ceil(log2 p) iterations.
	// Zero means 4, the paper's setting.
	C int
	// Trace, when non-nil, receives the measured per-iteration compression
	// (the x_i and z of the paper's cost formula).
	Trace *RankTrace
}

// RankTrace records the load-balance measurements of one list-ranking run.
type RankTrace struct {
	// Active[t][id] is processor id's active element count at the start of
	// elimination iteration t; x_t = max over id.
	Active [][]int64
	// Survivors[id] is processor id's contribution to z.
	Survivors []int64
}

// NewRankTrace allocates trace storage for p processors. Iterations returns
// the elimination round count of a ListRank configured with multiplier c.
func NewRankTrace(p, iters int) *RankTrace {
	tr := &RankTrace{Active: make([][]int64, iters), Survivors: make([]int64, p)}
	for t := range tr.Active {
		tr.Active[t] = make([]int64, p)
	}
	return tr
}

// X returns the per-iteration maximum active counts (the x_i series).
func (tr *RankTrace) X() []float64 {
	xs := make([]float64, len(tr.Active))
	for t, row := range tr.Active {
		var m int64
		for _, v := range row {
			if v > m {
				m = v
			}
		}
		xs[t] = float64(m)
	}
	return xs
}

// Z returns the total survivor count.
func (tr *RankTrace) Z() float64 {
	var z int64
	for _, v := range tr.Survivors {
		z += v
	}
	return float64(z)
}

// Iterations returns the elimination round count for multiplier c on p
// processors.
func Iterations(c, p int) int {
	if c == 0 {
		c = 4
	}
	if p <= 1 {
		return 0
	}
	return c * ceilLog2(p)
}

// Out returns the name of the result array.
func (ListRank) Out() string { return "rank.R" }

// removal records one eliminated element for the expansion pass.
type removal struct {
	id     int
	pred   int
	weight int64
}

// Program returns the QSM program.
func (a ListRank) Program() core.Program {
	c := a.C
	if c == 0 {
		c = 4
	}
	return func(ctx core.Ctx) {
		p, id := ctx.P(), ctx.ID()
		l := a.List
		n := l.N
		head := l.Head
		iters := Iterations(c, p)
		lo, hi := workload.Partition(n, p, id)

		S := ctx.RegisterSpec("rank.S", n, core.LayoutSpec{Kind: core.LayoutBlocked})
		P := ctx.RegisterSpec("rank.P", n, core.LayoutSpec{Kind: core.LayoutBlocked})
		R := ctx.RegisterSpec("rank.R", n, core.LayoutSpec{Kind: core.LayoutBlocked})
		F := ctx.RegisterSpec("rank.F", n, core.LayoutSpec{Kind: core.LayoutBlocked})
		counts := ctx.RegisterSpec("rank.counts", p*p, core.LayoutSpec{Kind: core.LayoutBlocked})

		// Distribute the input: each processor owns the block [lo, hi).
		if hi > lo {
			ctx.WriteLocal(S, lo, l.Succ[lo:hi])
			ctx.WriteLocal(P, lo, l.Pred[lo:hi])
			r0 := make([]int64, hi-lo)
			for i := range r0 {
				r0[i] = 1
			}
			if head >= lo && head < hi {
				r0[head-lo] = 0
			}
			ctx.WriteLocal(R, lo, r0)
		}
		ctx.Sync() // phase: registration + input distribution

		active := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			active = append(active, i)
		}
		removedAt := make([][]removal, iters)
		rng := ctx.Rand()

		// flips[k] is the current flip of active[k]: genFlips draws one per
		// active element, in order, and active does not change between a
		// genFlips and the phase B that consults it.
		flips := make([]int64, 0, len(active))
		genFlips := func() {
			flips = flips[:0]
			for range active {
				flips = append(flips, int64(rng.Intn(2)))
			}
			ctx.PutIndexed(F, active, flips)
			ctx.Compute(cpu.BlockFlipGenerate(len(active)))
		}

		// Major step 1: eliminate until roughly n/p elements remain.
		if iters > 0 {
			genFlips()
		}
		ctx.Sync() // flips of iteration 0 committed

		// sAll, pAll and rAll mirror this processor's partition of S, P and
		// R: element i's words are at i-lo.
		var sAll, pAll, rAll []int64
		if hi > lo {
			sAll = make([]int64, hi-lo)
			pAll = make([]int64, hi-lo)
			rAll = make([]int64, hi-lo)
		}
		for t := 0; t < iters; t++ {
			if a.Trace != nil {
				a.Trace.Active[t][id] = int64(len(active))
			}
			// Refresh local mirrors of this processor's partition: splices
			// from the previous iteration may have rewritten them.
			if hi > lo {
				ctx.ReadLocal(S, lo, sAll)
				ctx.ReadLocal(P, lo, pAll)
				ctx.ReadLocal(R, lo, rAll)
			}
			ctx.Compute(cpu.BlockCompact(len(active)))

			// Phase B: candidates (flipped 1, not head, has successor)
			// prefetch the successor's flip and rank.
			cand := make([]int, 0, len(active)/2) // positions in active
			succIdx := make([]int, 0, len(active)/2)
			for k, i := range active {
				if i == head || sAll[i-lo] < 0 || flips[k] != 1 {
					continue
				}
				cand = append(cand, k)
				succIdx = append(succIdx, int(sAll[i-lo]))
			}
			sf := make([]int64, len(cand))
			sr := make([]int64, len(cand))
			ctx.GetIndexed(F, succIdx, sf)
			ctx.GetIndexed(R, succIdx, sr)
			ctx.Sync() // phase B of iteration t

			// Phase C: splice out elements whose successor flipped 0, and
			// (merged) generate the next iteration's flips.
			nrem := 0
			for _, f := range sf {
				if f == 0 {
					nrem++
				}
			}
			removedAt[t] = make([]removal, 0, nrem)
			removed := make([]bool, len(active)) // by position in active
			// The three splice write lists, one per target array.
			sIdx, pIdx, rIdx := make([]int, 0, nrem), make([]int, 0, nrem), make([]int, 0, nrem)
			sVal, pVal, rVal := make([]int64, 0, nrem), make([]int64, 0, nrem), make([]int64, 0, nrem)
			for ci, k := range cand {
				if sf[ci] != 0 {
					continue
				}
				i := active[k]
				succ, pred, w := int(sAll[i-lo]), int(pAll[i-lo]), rAll[i-lo]
				// S[pred] = succ; P[succ] = pred; R[succ] += R[i].
				sIdx, sVal = append(sIdx, pred), append(sVal, int64(succ))
				pIdx, pVal = append(pIdx, succ), append(pVal, int64(pred))
				rIdx, rVal = append(rIdx, succ), append(rVal, sr[ci]+w)
				removedAt[t] = append(removedAt[t], removal{id: i, pred: pred, weight: w})
				removed[k] = true
			}
			keep := active[:0]
			for k, i := range active {
				if !removed[k] {
					keep = append(keep, i)
				}
			}
			active = keep
			ctx.PutIndexed(S, sIdx, sVal)
			ctx.PutIndexed(P, pIdx, pVal)
			ctx.PutIndexed(R, rIdx, rVal)
			ctx.Compute(cpu.BlockCompact(len(cand)))
			if t+1 < iters {
				genFlips()
			}
			ctx.Sync() // phase C of iteration t
		}

		// Major step 2: gather the surviving sublist on processor 0.
		z := int64(len(active))
		if a.Trace != nil {
			a.Trace.Survivors[id] = z
		}
		var cidx []int
		var cvals []int64
		for r := 0; r < p; r++ {
			if r == id {
				ctx.WriteLocal(counts, r*p+id, []int64{z})
				continue
			}
			cidx = append(cidx, r*p+id)
			cvals = append(cvals, z)
		}
		ctx.PutIndexed(counts, cidx, cvals)
		ctx.Sync() // phase: counts broadcast

		row := make([]int64, p)
		ctx.ReadLocal(counts, id*p, row)
		var gOff, total int64
		for r := 0; r < p; r++ {
			if r < id {
				gOff += row[r]
			}
			total += row[r]
		}
		// The survivor arrays, sized now that the survivor count is known.
		gID := ctx.RegisterSpec("rank.gID", int(total), core.LayoutSpec{Kind: core.LayoutSingle, Owner: 0})
		gSucc := ctx.RegisterSpec("rank.gSucc", int(total), core.LayoutSpec{Kind: core.LayoutSingle, Owner: 0})
		gRank := ctx.RegisterSpec("rank.gRank", int(total), core.LayoutSpec{Kind: core.LayoutSingle, Owner: 0})
		if hi > lo {
			if sAll == nil {
				sAll = make([]int64, hi-lo)
				rAll = make([]int64, hi-lo)
			}
			ctx.ReadLocal(S, lo, sAll)
			ctx.ReadLocal(R, lo, rAll)
		}
		ids := make([]int64, len(active))
		succs := make([]int64, len(active))
		ranks := make([]int64, len(active))
		for k, i := range active {
			ids[k] = int64(i)
			succs[k] = sAll[i-lo]
			ranks[k] = rAll[i-lo]
		}
		if len(ids) > 0 {
			ctx.Put(gID, int(gOff), ids)
			ctx.Put(gSucc, int(gOff), succs)
			ctx.Put(gRank, int(gOff), ranks)
		}
		ctx.Compute(cpu.BlockCopy(len(active) * 3))
		ctx.Sync() // phase: survivors gathered

		// Processor 0 ranks the survivors sequentially and writes final
		// (absolute) ranks back into R.
		if id == 0 {
			zz := int(total)
			gids := make([]int64, zz)
			gsuccs := make([]int64, zz)
			granks := make([]int64, zz)
			ctx.ReadLocal(gID, 0, gids)
			ctx.ReadLocal(gSucc, 0, gsuccs)
			ctx.ReadLocal(gRank, 0, granks)
			succOf := make([]int64, n)
			weightOf := make([]int64, n)
			for i := range succOf {
				succOf[i] = -2 // not a survivor
			}
			for k := 0; k < zz; k++ {
				succOf[gids[k]] = gsuccs[k]
				weightOf[gids[k]] = granks[k]
			}
			finalIdx := make([]int, 0, zz)
			finalRank := make([]int64, 0, zz)
			acc := int64(0)
			for i := int64(head); i != -1; i = succOf[i] {
				if succOf[i] == -2 {
					panic("algorithms: broken survivor chain")
				}
				acc += weightOf[i]
				finalIdx = append(finalIdx, int(i))
				finalRank = append(finalRank, acc)
			}
			if len(finalIdx) != zz {
				panic("algorithms: survivor chain length mismatch")
			}
			ctx.PutIndexed(R, finalIdx, finalRank)
			ctx.Compute(cpu.BlockListTraverse(zz))
		}
		ctx.Sync() // phase: sequential ranks written

		// Major step 3: expansion — re-insert eliminated elements in reverse
		// order; each takes rank(pred) + its recorded link weight.
		for t := iters - 1; t >= 0; t-- {
			rem := removedAt[t]
			predIdx := make([]int, len(rem))
			for k, rm := range rem {
				predIdx[k] = rm.pred
			}
			pr := make([]int64, len(rem))
			ctx.GetIndexed(R, predIdx, pr)
			ctx.Sync() // expansion phase X_t

			myIdx := make([]int, len(rem))
			myRank := make([]int64, len(rem))
			for k, rm := range rem {
				myIdx[k] = rm.id
				myRank[k] = pr[k] + rm.weight
			}
			ctx.PutIndexed(R, myIdx, myRank)
			ctx.Compute(cpu.BlockCompact(len(rem)))
			ctx.Sync() // expansion phase Y_t
		}
	}
}
