// Package conformance runs randomly generated QSM programs on both backends
// — the simulated machine (qsmlib) and the native goroutine runtime (par) —
// and checks every read and the final shared state against an executable
// reference semantics. This is the differential test that pins down the
// memory model: reads see pre-phase state; writes commit at Sync, applied in
// source order; concurrent writes to one word resolve to the highest source.
package conformance

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/qsmlib"
	"repro/internal/stats"
)

// plan is a deterministic, pre-generated program: ops[phase][proc].
type plan struct {
	arrays []arraySpec
	phases [][][]op // phase -> proc -> ops
}

type arraySpec struct {
	name string
	n    int
	kind core.LayoutKind
}

type op struct {
	write bool
	arr   int
	idx   []int
	vals  []int64 // writes only
}

// writableWord partitions each array's words per phase so that no word is
// both read and written in the same phase, globally.
func writableWord(phase, arr, word int) bool {
	return stats.Mix64(uint64(phase)*31+uint64(arr), uint64(word))&1 == 1
}

// genPlan builds a random program for p processors.
func genPlan(seed int64, p, phases int) *plan {
	pl := &plan{
		arrays: []arraySpec{
			{"a", 64, core.LayoutBlocked},
			{"b", 100, core.LayoutCyclic},
			{"c", 257, core.LayoutHashed},
		},
	}
	for ph := 0; ph < phases; ph++ {
		perProc := make([][]op, p)
		for proc := 0; proc < p; proc++ {
			rng := stats.NewRand(seed, int64(ph*1000+proc))
			nops := rng.Intn(4)
			for k := 0; k < nops; k++ {
				arr := rng.Intn(len(pl.arrays))
				write := rng.Intn(2) == 0
				count := 1 + rng.Intn(8)
				seen := map[int]bool{}
				var idx []int
				var vals []int64
				for len(idx) < count {
					w := rng.Intn(pl.arrays[arr].n)
					if seen[w] || writableWord(ph, arr, w) != write {
						if len(seen) > pl.arrays[arr].n {
							break
						}
						seen[w] = true
						continue
					}
					seen[w] = true
					idx = append(idx, w)
					if write {
						vals = append(vals, rng.Int63n(1000000))
					}
				}
				if len(idx) == 0 {
					continue
				}
				perProc[proc] = append(perProc[proc], op{write: write, arr: arr, idx: idx, vals: vals})
			}
		}
		pl.phases = append(pl.phases, perProc)
	}
	return pl
}

// reference executes the plan against flat arrays and returns, per phase and
// proc and op, the values every read observed, plus the final arrays.
func reference(pl *plan, p int) (reads [][][][]int64, final [][]int64) {
	state := make([][]int64, len(pl.arrays))
	for i, a := range pl.arrays {
		state[i] = make([]int64, a.n)
	}
	for _, phase := range pl.phases {
		phaseReads := make([][][]int64, p)
		// Reads first: pre-phase state.
		for proc := 0; proc < p; proc++ {
			for _, o := range phase[proc] {
				if o.write {
					phaseReads[proc] = append(phaseReads[proc], nil)
					continue
				}
				got := make([]int64, len(o.idx))
				for k, ix := range o.idx {
					got[k] = state[o.arr][ix]
				}
				phaseReads[proc] = append(phaseReads[proc], got)
			}
		}
		// Writes in source order.
		for proc := 0; proc < p; proc++ {
			for _, o := range phase[proc] {
				if !o.write {
					continue
				}
				for k, ix := range o.idx {
					state[o.arr][ix] = o.vals[k]
				}
			}
		}
		reads = append(reads, phaseReads)
	}
	return reads, state
}

// program turns the plan into a core.Program that verifies its reads in the
// phase after they complete.
func program(pl *plan, wantReads [][][][]int64) core.Program {
	return func(ctx core.Ctx) {
		id := ctx.ID()
		hs := make([]core.Handle, len(pl.arrays))
		for i, a := range pl.arrays {
			hs[i] = ctx.RegisterSpec(a.name, a.n, core.LayoutSpec{Kind: a.kind})
		}
		ctx.Sync()
		for ph, phase := range pl.phases {
			type pending struct {
				dst  []int64
				want []int64
				o    op
			}
			var checks []pending
			for oi, o := range phase[id] {
				if o.write {
					ctx.PutIndexed(hs[o.arr], o.idx, o.vals)
					continue
				}
				dst := make([]int64, len(o.idx))
				ctx.GetIndexed(hs[o.arr], o.idx, dst)
				checks = append(checks, pending{dst: dst, want: wantReads[ph][id][oi], o: o})
			}
			ctx.Sync()
			for _, c := range checks {
				for k := range c.want {
					if c.dst[k] != c.want[k] {
						panic(fmt.Sprintf("phase %d proc %d: read arr %d word %d = %d, want %d",
							ph, id, c.o.arr, c.o.idx[k], c.dst[k], c.want[k]))
					}
				}
			}
		}
	}
}

func checkFinal(t *testing.T, backend string, got func(string) []int64, pl *plan, final [][]int64) {
	t.Helper()
	for i, a := range pl.arrays {
		data := got(a.name)
		for w := range final[i] {
			if data[w] != final[i][w] {
				t.Fatalf("%s: final %s[%d] = %d, want %d", backend, a.name, w, data[w], final[i][w])
			}
		}
	}
}

func TestRandomProgramsBothBackends(t *testing.T) {
	// The corpus spans processor counts from trivial to oversubscribed and
	// phase counts from single-step to long programs; every combination runs
	// on both backends against the reference semantics.
	type combo struct {
		seed      int64
		p, phases int
	}
	var corpus []combo
	for seed := int64(1); seed <= 12; seed++ {
		corpus = append(corpus, combo{seed, 5, 8})
	}
	corpus = append(corpus,
		combo{13, 1, 8},  // degenerate: no concurrency
		combo{14, 2, 1},  // single phase
		combo{15, 2, 12}, // long two-proc program
		combo{16, 3, 7},
		combo{17, 7, 5},
		combo{18, 8, 3}, // more procs than a typical host's spare cores
		combo{19, 6, 10},
		combo{20, 4, 9},
	)
	for _, c := range corpus {
		c := c
		t.Run(fmt.Sprintf("seed%d-p%d-ph%d", c.seed, c.p, c.phases), func(t *testing.T) {
			seed, p := c.seed, c.p
			pl := genPlan(seed, p, c.phases)
			wantReads, final := reference(pl, p)
			prog := program(pl, wantReads)

			sm := qsmlib.New(p, qsmlib.Options{Seed: seed})
			if err := sm.Run(prog); err != nil {
				t.Fatalf("sim backend: %v", err)
			}
			checkFinal(t, "sim", sm.Array, pl, final)

			nm := par.NewMachine(p, par.Options{Seed: seed})
			if err := nm.Run(prog); err != nil {
				t.Fatalf("native backend: %v", err)
			}
			checkFinal(t, "native", nm.Array, pl, final)
		})
	}
}

// TestRandomProgramsObeyRules replays a generated plan under the rule
// checker: the generator's read/write word partition must guarantee no
// violation is reported.
func TestRandomProgramsObeyRules(t *testing.T) {
	const p, phases = 4, 6
	pl := genPlan(99, p, phases)
	wantReads, _ := reference(pl, p)
	sm := qsmlib.New(p, qsmlib.Options{Seed: 99})
	if _, err := core.RunProfiled(sm, program(pl, wantReads), core.Flags{CheckRules: true, TrackKappa: true}); err != nil {
		t.Fatalf("rule checker flagged a compliant program: %v", err)
	}
}

// TestBackendsAgreeOnContention writes the same word from every processor
// in one phase on both backends and confirms both resolve identically.
func TestBackendsAgreeOnContention(t *testing.T) {
	const p = 6
	prog := func(ctx core.Ctx) {
		h := ctx.Register("w", 4)
		ctx.Sync()
		vals := []int64{int64(ctx.ID()*10 + 1), int64(ctx.ID()*10 + 2)}
		ctx.PutIndexed(h, []int{1, 3}, vals)
		ctx.Sync()
	}
	sm := qsmlib.New(p, qsmlib.Options{Seed: 5})
	if err := sm.Run(prog); err != nil {
		t.Fatal(err)
	}
	nm := par.NewMachine(p, par.Options{Seed: 5})
	if err := nm.Run(prog); err != nil {
		t.Fatal(err)
	}
	s, n := sm.Array("w"), nm.Array("w")
	for i := range s {
		if s[i] != n[i] {
			t.Fatalf("backends disagree at word %d: sim=%d native=%d", i, s[i], n[i])
		}
	}
	if s[1] != 51 || s[3] != 52 {
		t.Errorf("contention resolution wrong: %v (want highest source, proc 5)", s)
	}
}
