package membank

import (
	"testing"
)

func TestConflictMuchWorseThanNoConflict(t *testing.T) {
	for _, cfg := range AllConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			nc := Run(cfg, NoConflict, 300, 1)
			cf := Run(cfg, Conflict, 300, 1)
			ratio := cf.AvgCycles / nc.AvgCycles
			// On the shared-Ethernet NOW the medium saturates before the
			// hot bank does, flattening the patterns (the "0%" end of the
			// paper's spread); everywhere else the hot spot must cost 2x+.
			want := 1.8
			if cfg.SharedMedium {
				want = 1.15
			}
			if ratio < want {
				t.Errorf("Conflict/NoConflict = %.2f, want >= %.2f (paper: 2-4x)", ratio, want)
			}
		})
	}
}

func TestRandomNearNoConflict(t *testing.T) {
	// The paper: NoConflict beats Random by 0%-68%; randomization must stay
	// within about 2x of ideal on every architecture.
	for _, cfg := range AllConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			nc := Run(cfg, NoConflict, 300, 1)
			rnd := Run(cfg, Random, 300, 1)
			ratio := rnd.AvgCycles / nc.AvgCycles
			if ratio < 0.95 || ratio > 2.1 {
				t.Errorf("Random/NoConflict = %.2f, want in [1, ~2]", ratio)
			}
		})
	}
}

func TestRandomBetterThanConflict(t *testing.T) {
	for _, cfg := range AllConfigs() {
		rnd := Run(cfg, Random, 300, 1)
		cf := Run(cfg, Conflict, 300, 1)
		if rnd.AvgCycles*1.05 >= cf.AvgCycles {
			t.Errorf("%s: Random (%.0f) not clearly faster than Conflict (%.0f)",
				cfg.Name, rnd.AvgCycles, cf.AvgCycles)
		}
	}
}

func TestConflictSaturatesHotBank(t *testing.T) {
	cfg := SMPNative()
	r := Run(cfg, Conflict, 500, 2)
	if r.MaxBankUtil < 0.9 {
		t.Errorf("hot bank utilisation = %.2f, want near 1", r.MaxBankUtil)
	}
}

func TestDeterministic(t *testing.T) {
	a := Run(SMPNative(), Random, 200, 7)
	b := Run(SMPNative(), Random, 200, 7)
	if a.AvgCycles != b.AvgCycles {
		t.Error("not deterministic")
	}
	c := Run(SMPNative(), Random, 200, 8)
	if a.AvgCycles == c.AvgCycles {
		t.Error("different seeds gave identical averages (suspicious)")
	}
}

// TestFixedPatternsIgnoreSeed: Conflict and NoConflict never draw from a
// processor's rng, so their processors are spawned without one and every
// seed gives the same Result.
func TestFixedPatternsIgnoreSeed(t *testing.T) {
	for _, cfg := range AllConfigs() {
		for _, pat := range []Pattern{Conflict, NoConflict} {
			want := Run(cfg, pat, 60, 0)
			for _, seed := range []int64{1, 7, -3, 1 << 40} {
				if got := Run(cfg, pat, 60, seed); got != want {
					t.Errorf("%s %s: seed %d gave %+v, seed 0 %+v", cfg.Name, pat, seed, got, want)
				}
			}
		}
	}
}

func TestBSPlibSlowerThanNative(t *testing.T) {
	nat := Run(SMPNative(), Random, 300, 1)
	l2 := Run(SMPBSPlib2(), Random, 300, 1)
	l1 := Run(SMPBSPlib1(), Random, 300, 1)
	if !(nat.AvgCycles < l2.AvgCycles && l2.AvgCycles < l1.AvgCycles) {
		t.Errorf("want native (%.0f) < L2 (%.0f) < L1 (%.0f)",
			nat.AvgCycles, l2.AvgCycles, l1.AvgCycles)
	}
}

func TestNOWDominatedBySoftware(t *testing.T) {
	// On the Ethernet NOW the per-access software cost is so large that
	// even NoConflict accesses are hundreds of microseconds.
	r := Run(NOWBSPlib(), NoConflict, 100, 1)
	if us := r.AvgMicros(); us < 100 {
		t.Errorf("NOW access = %.1f us, want > 100 us", us)
	}
}

func TestAvgMicros(t *testing.T) {
	r := Result{Config: Config{ClockMHz: 100}, AvgCycles: 500}
	if r.AvgMicros() != 5 {
		t.Errorf("AvgMicros = %g, want 5", r.AvgMicros())
	}
	r.Config.ClockMHz = 0
	if r.AvgMicros() != 0 {
		t.Error("zero clock should give 0")
	}
}

func TestRunAllCoversPatterns(t *testing.T) {
	rs := RunAll(CrayT3E(), 100, 3)
	if len(rs) != 3 {
		t.Fatalf("got %d results", len(rs))
	}
	seen := map[Pattern]bool{}
	for _, r := range rs {
		seen[r.Pattern] = true
	}
	if !seen[Random] || !seen[Conflict] || !seen[NoConflict] {
		t.Error("patterns missing")
	}
}

func BenchmarkMembankRandom(b *testing.B) {
	cfg := SMPNative()
	for i := 0; i < b.N; i++ {
		Run(cfg, Random, 100, int64(i))
	}
}

func TestHotFractionMonotone(t *testing.T) {
	cfg := SMPNative()
	prev := 0.0
	for _, f := range []float64{0, 0.25, 0.5, 0.75, 1} {
		r := RunHotFraction(cfg, f, 400, 3)
		if r.AvgCycles < prev*0.98 { // allow sampling jitter at low fractions
			t.Errorf("hotFrac %.2f: avg %.0f below previous %.0f", f, r.AvgCycles, prev)
		}
		prev = r.AvgCycles
	}
}

func TestHotFractionEndpointsMatchPatterns(t *testing.T) {
	cfg := CrayT3E()
	full := RunHotFraction(cfg, 1, 300, 1)
	conflict := Run(cfg, Conflict, 300, 1)
	if ratio := full.AvgCycles / conflict.AvgCycles; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("hotFrac=1 vs Conflict ratio %.2f, want ~1", ratio)
	}
	none := RunHotFraction(cfg, 0, 300, 1)
	random := Run(cfg, Random, 300, 1)
	if ratio := none.AvgCycles / random.AvgCycles; ratio < 0.8 || ratio > 1.2 {
		t.Errorf("hotFrac=0 vs Random ratio %.2f, want ~1", ratio)
	}
}

func TestHotFractionBadInputPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("hotFrac > 1 did not panic")
		}
	}()
	RunHotFraction(SMPNative(), 1.5, 10, 1)
}

// TestBadConfigPanics: both entry points reject a config without processors
// or banks up front, instead of dividing by zero or panicking inside
// math/rand on the engine goroutine.
func TestBadConfigPanics(t *testing.T) {
	noBanks, noProcs := SMPNative(), SMPNative()
	noBanks.Banks, noProcs.Procs = 0, 0
	for name, run := range map[string]func(){
		"Run/banks=0":            func() { Run(noBanks, Random, 10, 1) },
		"Run/procs=0":            func() { Run(noProcs, Random, 10, 1) },
		"RunHotFraction/banks=0": func() { RunHotFraction(noBanks, 0.5, 10, 1) },
		"RunHotFraction/procs=0": func() { RunHotFraction(noProcs, 0.5, 10, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != "membank: procs and banks must be positive" {
					t.Errorf("recovered %v, want the procs-and-banks panic", r)
				}
			}()
			run()
		})
	}
}
