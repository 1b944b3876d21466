package qsmlib

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/bsp"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/sim"
)

// pinProgram is one fixed mixed superstep program: contiguous and indexed
// puts and gets, self and remote accesses, two writers to one word, and an
// empty Sync. Each node ends by storing a digest of what it read in "out".
func pinProgram(ctx core.Ctx) {
	me, p := ctx.ID(), ctx.P()
	a := ctx.Register("a", 64)
	out := ctx.Register("out", p)
	ctx.Sync()

	vals := make([]int64, 20)
	for i := range vals {
		vals[i] = int64(1000*me + i)
	}
	ctx.Put(a, (16*me+6)%44, vals) // spans two owners, self included
	ctx.PutIndexed(a, []int{63 - me, 2*me + 1, 17, 40 + me}, []int64{1, 2, 3, int64(4 + me)})
	ctx.Put(a, 33, []int64{int64(-me)}) // every node writes word 33
	ctx.Sync()

	got := make([]int64, 24)
	ctx.Get(a, 30-me, got)
	gi := []int{5, 62, me, 33, 5, 48 + me}
	gv := make([]int64, len(gi))
	ctx.GetIndexed(a, gi, gv)
	ctx.Put(a, me, []int64{7}) // the gets above still see the old word
	ctx.Compute(cpu.BlockSum(64))
	ctx.Sync()
	ctx.Sync() // empty

	var d int64
	for _, v := range append(got, gv...) {
		d = 31*d + v
	}
	ctx.Put(out, me, []int64{d})
	ctx.Sync()
}

// syncPin is what a pin test compares: a run's cycle and traffic counts and
// the SHA-256 of its metrics JSON, its trace JSON and its final array
// contents.
type syncPin struct {
	Total          sim.Time
	Comm           []sim.Time
	Msgs, Bytes    uint64
	Metrics, Trace string
	Data           string
}

func newSyncPin(t *testing.T, total sim.Time, comm []sim.Time, msgs, bytesSent uint64, rec *obs.Recorder, arrays ...[]int64) syncPin {
	t.Helper()
	var mb, tb bytes.Buffer
	if err := rec.WriteMetricsJSON(&mb); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteTraceJSON(&tb); err != nil {
		t.Fatal(err)
	}
	sum := func(b []byte) string { h := sha256.Sum256(b); return hex.EncodeToString(h[:]) }
	return syncPin{Total: total, Comm: comm, Msgs: msgs, Bytes: bytesSent,
		Metrics: sum(mb.Bytes()), Trace: sum(tb.Bytes()), Data: sum([]byte(fmt.Sprint(arrays)))}
}

// TestSyncPinned pins the superstep exchange's simulated cycles, traffic,
// metrics, trace and results: the library under each exchange order and
// barrier, and the same program through the QSM-on-BSP emulation with a
// hashed layout.
func TestSyncPinned(t *testing.T) {
	native := func(naive, tree bool) func(*testing.T, *obs.Recorder) syncPin {
		return func(t *testing.T, rec *obs.Recorder) syncPin {
			m := New(4, Options{Seed: 31, NaiveExchange: naive, TreeBarrier: tree, Obs: rec})
			if err := m.Run(pinProgram); err != nil {
				t.Fatal(err)
			}
			s := m.RunStats()
			return newSyncPin(t, s.TotalCycles, s.CommCycles, s.MsgsSent, s.BytesSent, rec, m.Array("a"), m.Array("out"))
		}
	}
	emulated := func(t *testing.T, rec *obs.Recorder) syncPin {
		m := bsp.NewQSM(4, bsp.Options{Seed: 31, Obs: rec}, core.LayoutHashed)
		if err := m.Run(pinProgram); err != nil {
			t.Fatal(err)
		}
		s := m.RunStats()
		return newSyncPin(t, s.TotalCycles, s.CommCycles, s.MsgsSent, s.BytesSent, rec, m.Array("a"), m.Array("out"))
	}
	const data = "3fd7bde2119ae3918de6fa221adb3074fe3710ab0267d9fe08dad7da33063592"
	for _, c := range []struct {
		name string
		run  func(*testing.T, *obs.Recorder) syncPin
		want syncPin
	}{
		{"staggered/central", native(false, false), syncPin{Total: 114639, Comm: []sim.Time{111862, 113154, 113854, 114554}, Msgs: 126, Bytes: 7600,
			Metrics: "7305011a3f6df0143c3ad1a34e942259b56fae55bbdd0699cba51d8bb347ad0d",
			Trace:   "d04a796ffdfa3005dc1a2e5d2c5cd315418ffe89f6739e4d09d614d97aec5190", Data: data}},
		{"staggered/tree", native(false, true), syncPin{Total: 103039, Comm: []sim.Time{102954, 102954, 102954, 102778}, Msgs: 136, Bytes: 7920,
			Metrics: "6aaa4ffe0fe0b74387ec9aa1de6b1829ce6578c438c77b6dc7d5c2f41892e0df",
			Trace:   "cea432ac45698924d70af97254af324be979e4877fbb92327d3f4e55140d671f", Data: data}},
		{"naive/central", native(true, false), syncPin{Total: 115607, Comm: []sim.Time{112830, 114122, 114822, 115522}, Msgs: 126, Bytes: 7600,
			Metrics: "dfbb771f0450956a7e81a36779c69eb31f138ee842bb7af3938e3bf13c054b14",
			Trace:   "041b0232dd39450ea3ea20466a2c8b7c33a401a79ff425ab5919f7da8a95a432", Data: data}},
		{"naive/tree", native(true, true), syncPin{Total: 108747, Comm: []sim.Time{106670, 107374, 108662, 106194}, Msgs: 136, Bytes: 7920,
			Metrics: "06b7f89cf780208adc08d348733e66c099c4e0c8072754f5161e4b0fb266ef54",
			Trace:   "a70c4d4152e9f7ac886c5b15e2ee7f2685a014d6cc646680247dca33f035d359", Data: data}},
		{"bsp-emulation/hashed", emulated, syncPin{Total: 129947, Comm: []sim.Time{127170, 128462, 129162, 129862}, Msgs: 130, Bytes: 9216,
			Metrics: "807f19f1705b009dbb0de40861560a85b639e0c2b6b368cbeec7fc5ba4a97927",
			Trace:   "e6f3811f08768f39ef6112301aa5d2869f822399551f2cfaa5f056c8019ae4eb", Data: data}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := c.run(t, obs.New(obs.Config{Metrics: true, Trace: true}))
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", c.want) {
				t.Errorf("got  %+v\nwant %+v", got, c.want)
			}
		})
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	for _, layout := range []core.LayoutKind{core.LayoutBlocked, core.LayoutCyclic, core.LayoutHashed} {
		layout := layout
		t.Run(fmt.Sprint(layout), func(t *testing.T) {
			m := New(4, Options{Layout: layout, Seed: 1})
			err := m.Run(func(ctx core.Ctx) {
				h := ctx.Register("a", 64)
				ctx.Sync()
				vals := make([]int64, 16)
				for i := range vals {
					vals[i] = int64(ctx.ID()*16 + i + 1000)
				}
				ctx.Put(h, ctx.ID()*16, vals)
				ctx.Sync()
				got := make([]int64, 64)
				ctx.Get(h, 0, got)
				ctx.Sync()
				for i, v := range got {
					if v != int64(i+1000) {
						panic("bad value")
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			data := m.Array("a")
			for i, v := range data {
				if v != int64(i+1000) {
					t.Fatalf("backing[%d] = %d, want %d", i, v, i+1000)
				}
			}
		})
	}
}

func TestGetSeesPrePhaseState(t *testing.T) {
	m := New(2, Options{Seed: 1})
	err := m.Run(func(ctx core.Ctx) {
		h := ctx.Register("a", 2)
		ctx.Sync()
		if ctx.ID() == 0 {
			ctx.Put(h, 0, []int64{7, 7})
		}
		ctx.Sync()
		got := make([]int64, 1)
		if ctx.ID() == 1 {
			ctx.Get(h, 0, got)
		}
		if ctx.ID() == 0 {
			ctx.Put(h, 1, []int64{9}) // write a different word, same phase
		}
		ctx.Sync()
		if ctx.ID() == 1 && got[0] != 7 {
			panic("get did not see pre-phase state")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIndexedRoundTrip(t *testing.T) {
	for _, layout := range []core.LayoutKind{core.LayoutBlocked, core.LayoutHashed} {
		layout := layout
		t.Run(fmt.Sprint(layout), func(t *testing.T) {
			m := New(4, Options{Layout: layout, Seed: 2})
			const n = 128
			err := m.Run(func(ctx core.Ctx) {
				h := ctx.Register("a", n)
				ctx.Sync()
				var idx []int
				var vals []int64
				for i := ctx.ID(); i < n; i += ctx.P() {
					idx = append(idx, i)
					vals = append(vals, int64(3*i))
				}
				ctx.PutIndexed(h, idx, vals)
				ctx.Sync()
				// Gather a rotated strided set.
				var ridx []int
				for i := (ctx.ID() + 2) % ctx.P(); i < n; i += ctx.P() {
					ridx = append(ridx, i)
				}
				dst := make([]int64, len(ridx))
				ctx.GetIndexed(h, ridx, dst)
				ctx.Sync()
				for k, i := range ridx {
					if dst[k] != int64(3*i) {
						panic("bad indexed value")
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConflictingWritesDeterministic(t *testing.T) {
	m := New(4, Options{Seed: 3})
	var got int64
	err := m.Run(func(ctx core.Ctx) {
		h := ctx.Register("a", 1)
		ctx.Sync()
		ctx.Put(h, 0, []int64{int64(100 + ctx.ID())})
		ctx.Sync()
		d := make([]int64, 1)
		if ctx.ID() == 2 {
			ctx.Get(h, 0, d)
		}
		ctx.Sync()
		if ctx.ID() == 2 {
			got = d[0]
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 103 {
		t.Errorf("conflicting writes resolved to %d, want 103 (highest source)", got)
	}
}

func TestCommTimeGrowsWithVolume(t *testing.T) {
	run := func(words int) sim.Time {
		m := New(4, Options{Seed: 4})
		if err := m.Run(func(ctx core.Ctx) {
			h := ctx.Register("a", words*4)
			ctx.Sync()
			// Write the next processor's partition: all remote.
			buf := make([]int64, words)
			ctx.Put(h, ((ctx.ID()+1)%4)*words, buf)
			ctx.Sync()
		}); err != nil {
			t.Fatal(err)
		}
		return m.RunStats().MaxComm()
	}
	small, large := run(100), run(10000)
	if large < 5*small {
		t.Errorf("100x volume: comm %d -> %d, want strong growth", small, large)
	}
}

func TestLocalPutsCheaperThanRemote(t *testing.T) {
	run := func(remote bool) sim.Time {
		m := New(4, Options{Seed: 5})
		if err := m.Run(func(ctx core.Ctx) {
			h := ctx.Register("a", 40000)
			ctx.Sync()
			buf := make([]int64, 10000)
			dst := ctx.ID()
			if remote {
				dst = (ctx.ID() + 1) % 4
			}
			ctx.Put(h, dst*10000, buf)
			ctx.Sync()
		}); err != nil {
			t.Fatal(err)
		}
		return m.RunStats().TotalCycles
	}
	local, remote := run(false), run(true)
	if remote < 2*local {
		t.Errorf("remote puts (%d) should be much slower than local (%d)", remote, local)
	}
}

func TestRunStatsCounters(t *testing.T) {
	m := New(2, Options{Seed: 6})
	if err := m.Run(func(ctx core.Ctx) {
		h := ctx.Register("a", 2)
		ctx.Sync()
		ctx.Put(h, (ctx.ID()+1)%2, []int64{1})
		ctx.Sync()
		ctx.Compute(cpu.BlockSum(1000))
	}); err != nil {
		t.Fatal(err)
	}
	s := m.RunStats()
	if s.MsgsSent == 0 || s.BytesSent == 0 {
		t.Error("no messages counted")
	}
	if s.MaxComm() == 0 {
		t.Error("no communication time recorded")
	}
	if s.MaxComp() == 0 {
		t.Error("no computation time recorded")
	}
	if s.TotalCycles < s.MaxComm() {
		t.Error("total < comm")
	}
}

func TestTreeBarrierOption(t *testing.T) {
	m := New(8, Options{Seed: 7, TreeBarrier: true})
	if err := m.Run(func(ctx core.Ctx) {
		h := ctx.Register("a", 8)
		ctx.Sync()
		ctx.Put(h, ctx.ID(), []int64{int64(ctx.ID())})
		ctx.Sync()
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range m.Array("a") {
		if v != int64(i) {
			t.Fatalf("data wrong with tree barrier: %v", m.Array("a"))
		}
	}
}

func TestRunProfiledRemoteClassification(t *testing.T) {
	m := New(4, Options{Seed: 8})
	prof, err := m.RunProfiled(func(ctx core.Ctx) {
		h := ctx.Register("a", 4)
		ctx.Sync()
		ctx.Put(h, ctx.ID(), []int64{1}) // local under Blocked
		ctx.Sync()
		d := make([]int64, 4)
		ctx.Get(h, 0, d) // 3 remote words
		ctx.Sync()
	}, core.Flags{})
	if err != nil {
		t.Fatal(err)
	}
	if rw := prof.Phases[1].MaxRW(); rw != 0 {
		t.Errorf("phase 1 m_rw = %d, want 0 (local puts)", rw)
	}
	if rw := prof.Phases[2].MaxRW(); rw != 3 {
		t.Errorf("phase 2 m_rw = %d, want 3", rw)
	}
}

func TestHashedLayoutSpreadsOwnership(t *testing.T) {
	m := New(8, Options{Layout: core.LayoutHashed, Seed: 9})
	var per []int
	if err := m.Run(func(ctx core.Ctx) {
		h := ctx.Register("a", 8000)
		ctx.Sync()
		if ctx.ID() == 0 {
			per = m.PerOwner(h, 0, 8000)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for o, n := range per {
		if n < 700 || n > 1300 {
			t.Errorf("owner %d has %d of 8000 words, want ~1000", o, n)
		}
	}
}

func TestDeterministicSimulation(t *testing.T) {
	run := func() sim.Time {
		m := New(4, Options{Seed: 10})
		if err := m.Run(func(ctx core.Ctx) {
			h := ctx.Register("a", 1024)
			ctx.Sync()
			buf := make([]int64, 64)
			for r := 0; r < 3; r++ {
				ctx.Put(h, int(ctx.Rand().Int31n(960)), buf)
				ctx.Sync()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return m.RunStats().TotalCycles
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic simulation: %d vs %d", a, b)
	}
}

func TestEmptySyncCheap(t *testing.T) {
	m := New(16, Options{Seed: 11})
	if err := m.Run(func(ctx core.Ctx) {
		ctx.Sync()
		ctx.Sync()
	}); err != nil {
		t.Fatal(err)
	}
	// An empty sync is plan + barrier; it must stay well under a
	// data-heavy sync but be nonzero.
	total := m.RunStats().TotalCycles
	if total == 0 || total > 500000 {
		t.Errorf("two empty syncs took %d cycles", total)
	}
}

func TestRegisterMismatchPanics(t *testing.T) {
	m := New(2, Options{})
	err := m.Run(func(ctx core.Ctx) {
		if ctx.ID() == 0 {
			ctx.Register("a", 10)
		} else {
			ctx.Register("a", 10)
			ctx.Register("a", 20)
		}
	})
	if err == nil {
		t.Fatal("size mismatch should error")
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	m := New(2, Options{})
	err := m.Run(func(ctx core.Ctx) {
		h := ctx.Register("a", 4)
		ctx.Sync()
		if ctx.ID() == 0 {
			ctx.GetIndexed(h, []int{9}, make([]int64, 1))
		}
		ctx.Sync()
	})
	if err == nil {
		t.Fatal("out-of-range index should error")
	}
}

func TestReadWriteLocal(t *testing.T) {
	m := New(4, Options{Seed: 20})
	if err := m.Run(func(ctx core.Ctx) {
		h := ctx.Register("a", 16) // block 4
		ctx.Sync()
		lo := ctx.ID() * 4
		vals := []int64{1, 2, 3, 4}
		ctx.WriteLocal(h, lo, vals)
		got := make([]int64, 4)
		ctx.ReadLocal(h, lo, got)
		for i := range vals {
			if got[i] != vals[i] {
				panic("ReadLocal did not see WriteLocal")
			}
		}
		ctx.Sync()
	}); err != nil {
		t.Fatal(err)
	}
}

func TestReadLocalForeignPanics(t *testing.T) {
	m := New(4, Options{Seed: 21})
	err := m.Run(func(ctx core.Ctx) {
		h := ctx.Register("a", 16)
		ctx.Sync()
		if ctx.ID() == 0 {
			ctx.ReadLocal(h, 8, make([]int64, 2)) // proc 2's block
		}
		ctx.Sync()
	})
	if err == nil {
		t.Fatal("foreign ReadLocal should error")
	}
}

func TestFreeAndReuse(t *testing.T) {
	m := New(3, Options{Seed: 22})
	if err := m.Run(func(ctx core.Ctx) {
		h := ctx.Register("tmp", 6)
		ctx.Sync()
		ctx.Put(h, ctx.ID()*2, []int64{1, 2})
		ctx.Sync()
		ctx.Free(h)
		ctx.Sync()
		h2 := ctx.Register("tmp", 9) // reuse the name with a new size
		ctx.Sync()
		ctx.Put(h2, ctx.ID()*3, []int64{7, 8, 9})
		ctx.Sync()
	}); err != nil {
		t.Fatal(err)
	}
	if got := len(m.Array("tmp")); got != 9 {
		t.Fatalf("reused array length = %d, want 9", got)
	}
}

func TestUseAfterFreePanics(t *testing.T) {
	m := New(2, Options{Seed: 23})
	err := m.Run(func(ctx core.Ctx) {
		h := ctx.Register("tmp", 4)
		ctx.Sync()
		ctx.Free(h)
		ctx.Sync()
		ctx.Put(h, 0, []int64{1}) // all procs freed: destroyed
	})
	if err == nil {
		t.Fatal("use after free should error")
	}
}

func TestNaiveExchangeStillCorrect(t *testing.T) {
	m := New(4, Options{Seed: 24, NaiveExchange: true})
	if err := m.Run(func(ctx core.Ctx) {
		h := ctx.Register("a", 16)
		ctx.Sync()
		ctx.Put(h, ((ctx.ID()+1)%4)*4, []int64{9, 9, 9, 9})
		ctx.Sync()
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range m.Array("a") {
		if v != 9 {
			t.Fatalf("word %d = %d under naive exchange", i, v)
		}
	}
}

func TestTimeline(t *testing.T) {
	m := New(4, Options{Seed: 30})
	if err := m.Run(func(ctx core.Ctx) {
		h := ctx.Register("a", 16)
		ctx.Sync()
		ctx.Put(h, ((ctx.ID()+1)%4)*4, []int64{1, 2, 3, 4})
		ctx.Sync()
		d := make([]int64, 4)
		ctx.Get(h, 0, d)
		ctx.Sync()
	}); err != nil {
		t.Fatal(err)
	}
	tl := m.Timeline(0)
	if len(tl) != 3 {
		t.Fatalf("timeline has %d spans, want 3", len(tl))
	}
	if tl[1].PutWords != 4 {
		t.Errorf("phase 1 put words = %d, want 4", tl[1].PutWords)
	}
	if tl[2].GetWords == 0 {
		t.Errorf("phase 2 get words = 0")
	}
	for i, s := range tl {
		if s.End <= s.Start {
			t.Errorf("span %d has non-positive duration", i)
		}
		if i > 0 && s.Start < tl[i-1].End {
			t.Errorf("span %d overlaps previous", i)
		}
	}
	if m.Timeline(99) != nil {
		t.Error("invalid node should yield nil timeline")
	}
}
