package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileClosestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // sorted: 10 20 30 40 50
	for _, tc := range []struct{ p, want float64 }{
		{1, 10}, {20, 10}, {21, 20}, {50, 30}, {80, 40}, {81, 50}, {99.9, 50}, {100, 50},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 50 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample: got %v, want 0", got)
	}
	// An even count picks an observed sample, never a midpoint.
	if got := percentile([]float64{1, 2, 3, 4}, 50); got != 2 {
		t.Errorf("p50 of 4 samples = %v, want 2", got)
	}
}

func TestSegmentsAndQuietEstimators(t *testing.T) {
	// Eight segments of two units. Three are hit by a 10x stall; the rest
	// take 1 s per segment and 0.5 s per unit.
	var lat []float64
	var done []time.Duration
	now := time.Duration(0)
	for s := 0; s < 8; s++ {
		unit := 500 * time.Millisecond
		if s == 2 || s == 3 || s == 6 {
			unit *= 10
		}
		for u := 0; u < 2; u++ {
			now += unit
			lat = append(lat, float64(unit)/float64(time.Millisecond))
			done = append(done, now)
		}
	}
	// Completion order must not matter.
	lat[0], lat[15] = lat[15], lat[0]
	done[0], done[15] = done[15], done[0]
	rates, p50s := segments(lat, done, 2)
	if len(rates) != 8 || len(p50s) != 8 {
		t.Fatalf("%d rates, %d medians; want 8 each", len(rates), len(p50s))
	}
	for s, r := range rates {
		want, wantLat := 2.0, 500.0
		if s == 2 || s == 3 || s == 6 {
			want, wantLat = 0.2, 5000
		}
		if math.Abs(r-want) > 1e-9 || p50s[s] != wantLat {
			t.Errorf("segment %d: rate %v, median latency %v; want %v, %v", s, r, p50s[s], want, wantLat)
		}
	}
	// The whole-window mean rate would read 16/35 = 0.46/s; the estimators
	// read the quiet segments.
	if got := workPerS(rates); math.Abs(got-2) > 1e-9 {
		t.Errorf("workPerS = %v, want 2", got)
	}
	if got := latP50MS(p50s); got != 500 {
		t.Errorf("latP50MS = %v, want 500", got)
	}
	// A trailing partial segment is ignored; too few units give nothing.
	if r, _ := segments(append(lat, 1), append(done, 99*time.Second), 2); len(r) != 8 {
		t.Errorf("with a partial segment: %d segments, want 8", len(r))
	}
	if r, p := segments(lat[:1], done[:1], 2); len(r) != 0 || len(p) != 0 || workPerS(r) != 0 {
		t.Errorf("fewer units than one segment: %v %v, want none", r, p)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "parent", Start: msd(0), End: msd(100), Parent: -1},
		{Name: "a", Start: msd(10), End: msd(40), Parent: 0},
		{Name: "b overlaps a", Start: msd(30), End: msd(60), Parent: 0},
		{Name: "c sticks out", Start: msd(90), End: msd(120), Parent: 0},
		{Name: "grandchild", Start: msd(15), End: msd(20), Parent: 1},
		{Name: "d inside b", Start: msd(35), End: msd(50), Parent: 0},
	}
	self := selfTimes(spans)
	// Children cover [10,60) and [90,100) of the parent: 60 ms of 100.
	want := []time.Duration{msd(40), msd(25), msd(30), msd(30), msd(5), msd(15)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %q = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

func TestKeyIndexIsPureFunctionOfSeedAndOp(t *testing.T) {
	const n = 32
	seen := map[int]int{}
	for op := 0; op < 4000; op++ {
		k := keyIndex(7, op, n)
		if k < 0 || k >= n {
			t.Fatalf("keyIndex out of range: %d", k)
		}
		if again := keyIndex(7, op, n); again != k {
			t.Fatalf("keyIndex(7, %d) gave %d then %d", op, k, again)
		}
		seen[k]++
	}
	for k := 0; k < n; k++ {
		if c := seen[k]; c < 4000/n/2 || c > 4000/n*2 {
			t.Errorf("key %d drawn %d times of 4000; the sequence is badly skewed", k, c)
		}
	}
	same := 0
	for op := 0; op < 1000; op++ {
		if keyIndex(7, op, n) == keyIndex(8, op, n) {
			same++
		}
	}
	if same > 100 {
		t.Errorf("seeds 7 and 8 agree on %d of 1000 ops; the seed does not drive the sequence", same)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 = quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
}

func TestSizedKeepsWholeSegments(t *testing.T) {
	for _, w := range workloads {
		for _, f := range []float64{1, 0.5, 0.2, 0.1, 0.05, 0.01, 6} {
			s := w.sized(f)
			if s.timed < 1 || s.segs < 1 || s.timed%s.segs != 0 {
				t.Errorf("%s scaled by %v: %d units in %d segments", w.name, f, s.timed, s.segs)
			}
		}
	}
}
