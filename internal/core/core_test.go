package core

import (
	"testing"
	"testing/quick"
)

func phase(ops, rw []uint64, kappa uint64) *PhaseProfile {
	n := len(ops)
	ph := &PhaseProfile{
		Ops: ops, OpCycles: ops, RW: rw,
		SentWords: rw, RecvWords: make([]uint64, n),
		Msgs: make([]uint64, n), Kappa: kappa,
	}
	return ph
}

func profileOf(phases ...*PhaseProfile) *Profile {
	return &Profile{P: len(phases[0].Ops), Phases: phases}
}

func TestPhaseCharges(t *testing.T) {
	mixed := phase([]uint64{100, 50}, []uint64{10, 30}, 7)
	hot := phase([]uint64{5}, []uint64{1}, 40)
	for _, tc := range []struct {
		name string
		m    Model
		ph   *PhaseProfile
		want float64
	}{
		{"QSM max(100, 60, 7)", QSM{G: 2}, mixed, 100},
		{"QSM g*m_rw", QSM{G: 5}, mixed, 150},
		{"QSM kappa", QSM{G: 2}, hot, 40},
		{"s-QSM g*kappa", SQSM{G: 2}, hot, 80},
	} {
		if got := profileOf(tc.ph).Time(tc.m); got != tc.want {
			t.Errorf("%s: charge = %g, want %g", tc.name, got, tc.want)
		}
	}
}

func TestProfileSums(t *testing.T) {
	pr := profileOf(
		phase([]uint64{10, 20}, []uint64{5, 5}, 0),
		phase([]uint64{30, 5}, []uint64{0, 8}, 0),
	)
	if got := pr.Time(QSM{G: 1}); got != 20+30 {
		t.Errorf("QSM time = %g, want 50", got)
	}
	if pr.NumPhases() != 2 {
		t.Error("NumPhases wrong")
	}
	if got := pr.TotalRemoteWords(); got != 18 {
		t.Errorf("TotalRemoteWords = %d, want 18", got)
	}
	// BSP adds L per phase.
	if got := pr.Time(BSP{G: 1, L: 100}); got != 20+30+200 {
		t.Errorf("BSP time = %g, want 250", got)
	}
	if got := pr.CommTime(BSP{G: 2, L: 100}); got != 2*5+2*8+200 {
		t.Errorf("BSP comm time = %g, want 226", got)
	}
}

func TestLogPCommCharges(t *testing.T) {
	ph := phase([]uint64{0, 0}, []uint64{10, 0}, 0)
	ph.Msgs[0] = 4
	got := profileOf(ph).CommTime(LogP{G: 2, L: 100, O: 50})
	if want := 2.0*50*4 + 2*10 + 100; got != want {
		t.Errorf("LogP comm time = %g, want %g", got, want)
	}
}

// rawPhase is a three-processor phase as testing/quick draws it.
type rawPhase struct {
	Ops, Cycles, RW, Sent, Recv, Msgs [3]uint16
	Kappa                             uint8
}

func (r rawPhase) profile() *PhaseProfile {
	w := func(xs [3]uint16) []uint64 {
		return []uint64{uint64(xs[0]), uint64(xs[1]), uint64(xs[2])}
	}
	return &PhaseProfile{
		Ops: w(r.Ops), OpCycles: w(r.Cycles), RW: w(r.RW),
		SentWords: w(r.Sent), RecvWords: w(r.Recv), Msgs: w(r.Msgs),
		Kappa: uint64(r.Kappa),
	}
}

func rawProfile(raw []rawPhase) *Profile {
	pr := &Profile{P: 3}
	for _, r := range raw {
		pr.Phases = append(pr.Phases, r.profile())
	}
	return pr
}

// TestModelProperties checks every model on random profiles. Parameters
// are multiples of 1/4 and counts fit in 16 bits, so every charge is exact
// in float64 and the sums can be compared with ==.
func TestModelProperties(t *testing.T) {
	models := []struct {
		name string
		of   func(g, l, o float64) Model
	}{
		{"QSM", func(g, _, _ float64) Model { return QSM{G: g} }},
		{"s-QSM", func(g, _, _ float64) Model { return SQSM{G: g} }},
		{"BSP", func(g, l, _ float64) Model { return BSP{G: g, L: l} }},
		{"LogP", func(g, l, o float64) Model { return LogP{G: g, L: l, O: o} }},
	}
	param := func(x uint8) float64 { return float64(x) / 4 }
	for _, mc := range models {
		t.Run(mc.name, func(t *testing.T) {
			f := func(a, b []rawPhase, g, l, o uint8) bool {
				m := mc.of(param(g), param(l), param(o))
				pa, pb := rawProfile(a), rawProfile(b)
				both := rawProfile(append(append([]rawPhase(nil), a...), b...))
				return both.CommTime(m) <= both.Time(m) &&
					both.Time(m) == pa.Time(m)+pb.Time(m) &&
					both.CommTime(m) == pa.CommTime(m)+pb.CommTime(m)
			}
			if err := quick.Check(f, nil); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSQSMAtLeastQSM checks that, with a gap of at least one operation per
// word, charging contention at the gap can only raise the charge.
func TestSQSMAtLeastQSM(t *testing.T) {
	f := func(a []rawPhase, g uint8) bool {
		pr, gap := rawProfile(a), 1+float64(g)/4
		return pr.Time(SQSM{G: gap}) >= pr.Time(QSM{G: gap})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResolveLayoutDefaults(t *testing.T) {
	l := ResolveLayout(LayoutSpec{}, 100, 4, LayoutDefault, 1)
	if l.Kind != LayoutBlocked {
		t.Errorf("default of default should be blocked, got %v", l.Kind)
	}
	l = ResolveLayout(LayoutSpec{}, 100, 4, LayoutHashed, 1)
	if l.Kind != LayoutHashed {
		t.Errorf("backend default not honoured: %v", l.Kind)
	}
	l = ResolveLayout(LayoutSpec{Kind: LayoutCyclic}, 100, 4, LayoutHashed, 1)
	if l.Kind != LayoutCyclic {
		t.Errorf("explicit spec not honoured: %v", l.Kind)
	}
}

func TestLayoutOwnerOf(t *testing.T) {
	blocked := ResolveLayout(LayoutSpec{Kind: LayoutBlocked}, 10, 4, 0, 1)
	want := []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3}
	for i, w := range want {
		if got := blocked.OwnerOf(i); got != w {
			t.Errorf("blocked OwnerOf(%d) = %d, want %d", i, got, w)
		}
	}
	cyclic := ResolveLayout(LayoutSpec{Kind: LayoutCyclic}, 10, 4, 0, 1)
	for i := 0; i < 10; i++ {
		if cyclic.OwnerOf(i) != i%4 {
			t.Fatal("cyclic ownership wrong")
		}
	}
	single := ResolveLayout(LayoutSpec{Kind: LayoutSingle, Owner: 2}, 10, 4, 0, 1)
	for i := 0; i < 10; i++ {
		if single.OwnerOf(i) != 2 {
			t.Fatal("single ownership wrong")
		}
	}
}

func TestLayoutHashedBalanced(t *testing.T) {
	l := ResolveLayout(LayoutSpec{Kind: LayoutHashed}, 80000, 8, 0, 12345)
	per := l.PerOwner(0, 80000)
	for o, c := range per {
		if c < 9000 || c > 11000 {
			t.Errorf("hashed owner %d holds %d of 80000, want ~10000", o, c)
		}
	}
}

func TestLayoutPerOwnerMatchesOwnerOf(t *testing.T) {
	kinds := []LayoutKind{LayoutBlocked, LayoutCyclic, LayoutHashed, LayoutSingle}
	f := func(nRaw uint8, offRaw, lenRaw uint8, kindIdx uint8) bool {
		n := int(nRaw)%200 + 1
		p := 5
		off := int(offRaw) % n
		cnt := int(lenRaw) % (n - off)
		l := ResolveLayout(LayoutSpec{Kind: kinds[kindIdx%4], Owner: 3}, n, p, 0, 77)
		per := l.PerOwner(off, cnt)
		want := make([]int, p)
		for i := off; i < off+cnt; i++ {
			want[l.OwnerOf(i)]++
		}
		for o := range want {
			if per[o] != want[o] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLayoutSpansCoverExactly(t *testing.T) {
	kinds := []LayoutKind{LayoutBlocked, LayoutCyclic, LayoutHashed, LayoutSingle}
	f := func(nRaw, offRaw, lenRaw, kindIdx uint8) bool {
		n := int(nRaw)%150 + 1
		off := int(offRaw) % n
		cnt := int(lenRaw) % (n - off)
		l := ResolveLayout(LayoutSpec{Kind: kinds[kindIdx%4], Owner: 1}, n, 4, 0, 9)
		cursor := off
		total := 0
		ok := true
		l.Spans(off, cnt, func(owner, so, c int) {
			if so != cursor || c <= 0 {
				ok = false
				return
			}
			for i := so; i < so+c; i++ {
				if l.OwnerOf(i) != owner {
					ok = false
				}
			}
			cursor += c
			total += c
		})
		return ok && total == cnt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOwnsRange(t *testing.T) {
	l := ResolveLayout(LayoutSpec{Kind: LayoutBlocked}, 12, 4, 0, 1)
	if !l.OwnsRange(0, 0, 3) {
		t.Error("proc 0 should own [0,3)")
	}
	if l.OwnsRange(0, 0, 4) {
		t.Error("proc 0 should not own [0,4)")
	}
	if !l.OwnsRange(3, 9, 3) {
		t.Error("last proc should own the tail")
	}
	h := ResolveLayout(LayoutSpec{Kind: LayoutHashed}, 1000, 4, 0, 5)
	if h.OwnsRange(0, 0, 100) {
		t.Error("hashed layout almost surely does not give one proc 100 consecutive words")
	}
	s := ResolveLayout(LayoutSpec{Kind: LayoutSingle, Owner: 2}, 50, 4, 0, 1)
	if !s.OwnsRange(2, 0, 50) || s.OwnsRange(1, 0, 1) {
		t.Error("single ownership wrong")
	}
}

func TestMaxHelpers(t *testing.T) {
	ph := &PhaseProfile{
		Ops:       []uint64{3, 9, 1},
		SentWords: []uint64{5, 2, 0},
		RecvWords: []uint64{1, 8, 2},
		Msgs:      []uint64{4, 0, 2},
	}
	if ph.MaxOps() != 9 || ph.MaxH() != 8 || ph.MaxMsgs() != 4 {
		t.Errorf("maxima wrong: ops=%d h=%d msgs=%d", ph.MaxOps(), ph.MaxH(), ph.MaxMsgs())
	}
}
