package bsp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestSyncPinned pins the superstep exchange on raw regions: simulated
// cycles, traffic, the SHA-256 of the metrics and trace JSON, and the final
// region contents of one fixed program mixing contiguous and indexed puts
// and gets, self and remote accesses, several writers to one word, and an
// empty Sync. qsmlib's TestSyncPinned covers the QSM emulation.
func TestSyncPinned(t *testing.T) {
	rec := obs.New(obs.Config{Metrics: true, Trace: true})
	m := New(4, Options{Seed: 31, Obs: rec})
	err := m.Run(func(pc *Proc) {
		me, p := pc.ID(), pc.P()
		r := pc.Register("r", 16)
		out := pc.Register("out", 1)
		pc.Sync()

		pc.Put((me+1)%p, r, me, []int64{10, 11, 12, 13, 14, 15, 16, int64(17 + me)})
		pc.Put(me, r, 8, []int64{int64(20 + me), 21, 22, 23})
		pc.PutIndexed((me+2)%p, r, []int{15, 3, 9}, []int64{30, 31, int64(32 + me)})
		pc.PutIndexed(me, r, []int{14, 13}, []int64{40, 41})
		pc.Put(0, r, 12, []int64{int64(-me)}) // every processor writes word 12 of processor 0
		pc.Sync()

		got := make([]int64, 6)
		pc.Get((me+3)%p, r, 2, got)
		gi := []int{12, 0, 12, 7}
		gv := make([]int64, len(gi))
		pc.GetIndexed(0, r, gi, gv)
		sv := make([]int64, 2)
		pc.GetIndexed(me, r, []int{9, 1}, sv)
		pc.Put((me+1)%p, r, 0, []int64{7}) // the gets above still see the old word
		pc.Compute(cpu.BlockSum(64))
		pc.Sync()
		pc.Sync() // empty

		var d int64
		for _, v := range append(append(got, gv...), sv...) {
			d = 31*d + v
		}
		pc.WriteLocal(out, 0, []int64{d})
		pc.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	var mb, tb bytes.Buffer
	if err := rec.WriteMetricsJSON(&mb); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteTraceJSON(&tb); err != nil {
		t.Fatal(err)
	}
	var data [][]int64
	for proc := 0; proc < 4; proc++ {
		data = append(data, m.RegionData("r", proc), m.RegionData("out", proc))
	}
	sum := func(b []byte) string { h := sha256.Sum256(b); return hex.EncodeToString(h[:]) }
	s := m.RunStats()
	got := fmt.Sprintf("total=%d comm=%v msgs=%d bytes=%d\nmetrics=%s\ntrace=%s\ndata=%s",
		s.TotalCycles, s.CommCycles, s.MsgsSent, s.BytesSent,
		sum(mb.Bytes()), sum(tb.Bytes()), sum([]byte(fmt.Sprint(data))))
	want := `total=104915 comm=[102118 103410 104110 104810] msgs=114 bytes=6016
metrics=935568ed47cb1ba379c1a157b65a21f36e1fc3112556184636d7d73ccf0582b5
trace=7ab7a0581cccc4018d0fd7b3e43b7d46b00c5a209cdb39cf022db5f639aecc57
data=9cbd01694575029c7a34f1fa8818d3f4bae59dcc5c7afe8f208653658e9c82bb`
	if got != want {
		t.Errorf("got\n%s\nwant\n%s", got, want)
	}
}

func TestPutDelivers(t *testing.T) {
	m := New(4, Options{Seed: 1})
	err := m.Run(func(pc *Proc) {
		r := pc.Register("box", 4)
		pc.Sync()
		// Everyone writes its id into every processor's copy, slot id.
		for dst := 0; dst < pc.P(); dst++ {
			pc.Put(dst, r, pc.ID(), []int64{int64(pc.ID() + 100)})
		}
		pc.Sync()
		got := make([]int64, 4)
		pc.ReadLocal(r, 0, got)
		for i, v := range got {
			if v != int64(i+100) {
				panic("wrong value")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every copy holds the same content.
	for proc := 0; proc < 4; proc++ {
		data := m.RegionData("box", proc)
		for i, v := range data {
			if v != int64(i+100) {
				t.Fatalf("proc %d copy: %v", proc, data)
			}
		}
	}
}

func TestRegionsArePerProcessor(t *testing.T) {
	m := New(3, Options{Seed: 2})
	err := m.Run(func(pc *Proc) {
		r := pc.Register("priv", 1)
		pc.Sync()
		pc.WriteLocal(r, 0, []int64{int64(pc.ID() * 7)})
		pc.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	for proc := 0; proc < 3; proc++ {
		if got := m.RegionData("priv", proc)[0]; got != int64(proc*7) {
			t.Fatalf("proc %d region = %d", proc, got)
		}
	}
}

func TestGetReadsRemoteCopy(t *testing.T) {
	m := New(2, Options{Seed: 3})
	err := m.Run(func(pc *Proc) {
		r := pc.Register("a", 8)
		pc.Sync()
		vals := make([]int64, 8)
		for i := range vals {
			vals[i] = int64(pc.ID()*1000 + i)
		}
		pc.WriteLocal(r, 0, vals)
		pc.Sync()
		other := 1 - pc.ID()
		got := make([]int64, 8)
		pc.Get(other, r, 0, got)
		pc.Sync()
		for i, v := range got {
			if v != int64(other*1000+i) {
				panic("get returned wrong copy")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGetSeesPreCommitState(t *testing.T) {
	m := New(2, Options{Seed: 4})
	err := m.Run(func(pc *Proc) {
		r := pc.Register("a", 2)
		pc.Sync()
		if pc.ID() == 0 {
			pc.WriteLocal(r, 0, []int64{5})
		}
		pc.Sync()
		got := make([]int64, 1)
		if pc.ID() == 1 {
			pc.Get(0, r, 0, got)
			pc.Put(0, r, 1, []int64{9}) // same superstep, different word
		}
		pc.Sync()
		if pc.ID() == 1 && got[0] != 5 {
			panic("get saw in-flight state")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIndexedOps(t *testing.T) {
	m := New(3, Options{Seed: 5})
	err := m.Run(func(pc *Proc) {
		r := pc.Register("a", 16)
		pc.Sync()
		if pc.ID() == 0 {
			pc.PutIndexed(2, r, []int{1, 5, 9}, []int64{11, 55, 99})
		}
		pc.Sync()
		got := make([]int64, 3)
		if pc.ID() == 1 {
			pc.GetIndexed(2, r, []int{9, 1, 5}, got)
		}
		pc.Sync()
		if pc.ID() == 1 {
			if got[0] != 99 || got[1] != 11 || got[2] != 55 {
				panic("indexed round trip failed")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConflictingPutsResolveBySource(t *testing.T) {
	m := New(4, Options{Seed: 6})
	err := m.Run(func(pc *Proc) {
		r := pc.Register("w", 1)
		pc.Sync()
		pc.Put(0, r, 0, []int64{int64(pc.ID() + 100)})
		pc.Sync()
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.RegionData("w", 0)[0]; got != 103 {
		t.Fatalf("conflict resolved to %d, want 103", got)
	}
}

func TestCommCostsAccumulate(t *testing.T) {
	m := New(2, Options{Seed: 7})
	if err := m.Run(func(pc *Proc) {
		r := pc.Register("a", 20000)
		pc.Sync()
		if pc.ID() == 0 {
			pc.Put(1, r, 0, make([]int64, 20000))
		}
		pc.Sync()
	}); err != nil {
		t.Fatal(err)
	}
	st := m.RunStats()
	if st.MaxComm() < 100000 {
		t.Errorf("bulk put comm = %d cycles, suspiciously small", st.MaxComm())
	}
	if st.MsgsSent == 0 || st.BytesSent < 160000 {
		t.Errorf("counters: msgs=%d bytes=%d", st.MsgsSent, st.BytesSent)
	}
}

func TestDeterministic(t *testing.T) {
	run := func() sim.Time {
		m := New(4, Options{Seed: 8})
		if err := m.Run(func(pc *Proc) {
			r := pc.Register("a", 64)
			pc.Sync()
			for round := 0; round < 3; round++ {
				dst := int(pc.Rand().Int31n(4))
				pc.Put(dst, r, pc.ID(), []int64{int64(round)})
				pc.Sync()
			}
		}); err != nil {
			t.Fatal(err)
		}
		return m.RunStats().TotalCycles
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic: %d vs %d", a, b)
	}
}

func TestRegisterMismatchPanics(t *testing.T) {
	m := New(2, Options{Seed: 9})
	err := m.Run(func(pc *Proc) {
		pc.Register("a", 4)
		pc.Register("a", 8)
	})
	if err == nil {
		t.Fatal("size mismatch should error")
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	m := New(2, Options{Seed: 10})
	err := m.Run(func(pc *Proc) {
		r := pc.Register("a", 4)
		pc.Sync()
		pc.Put(1, r, 3, []int64{1, 2})
	})
	if err == nil {
		t.Fatal("out-of-bounds put should error")
	}
}

func TestInvalidDestPanics(t *testing.T) {
	m := New(2, Options{Seed: 11})
	err := m.Run(func(pc *Proc) {
		r := pc.Register("a", 4)
		pc.Sync()
		pc.Put(7, r, 0, []int64{1})
	})
	if err == nil {
		t.Fatal("invalid destination should error")
	}
}
