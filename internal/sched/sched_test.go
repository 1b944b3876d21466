package sched

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapRunsEachIndexOnce checks Map's exactly-once contract across
// parallelism levels, including par > n and n = 0, with and without a cost
// hint.
func TestMapRunsEachIndexOnce(t *testing.T) {
	for _, opt := range []Options{{}, {Cost: func(i int) float64 { return float64(i % 5) }}} {
		for _, par := range []int{0, 1, 2, 4, 16} {
			for _, n := range []int{0, 1, 7, 64, 500} {
				seen := make([]atomic.Int32, n)
				Map(par, n, func(i int) { seen[i].Add(1) }, opt)
				for i := range seen {
					if got := seen[i].Load(); got != 1 {
						t.Fatalf("par=%d n=%d cost=%v: index %d ran %d times",
							par, n, opt.Cost != nil, i, got)
					}
				}
			}
		}
	}
}

// TestMapClaimsInLPTOrder pins the schedule itself. Every job blocks on its
// own channel and the test releases one at a time; the freed worker is then
// the only one able to claim, so the job that starts next must be exactly
// the next index of the cost-descending order.
func TestMapClaimsInLPTOrder(t *testing.T) {
	const par, n = 3, 12
	cost := func(i int) float64 { return float64((i * 5) % 7) } // ties broken by index
	want := claimOrder(n, cost)

	started := make(chan int)
	release := make([]chan struct{}, n)
	for i := range release {
		release[i] = make(chan struct{})
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		Map(par, n, func(i int) {
			started <- i
			<-release[i]
		}, Options{Cost: cost})
	}()

	// The first par claims race to report, so only their set is fixed.
	running := map[int]bool{}
	for k := 0; k < par; k++ {
		running[<-started] = true
	}
	for k := 0; k < par; k++ {
		if !running[want[k]] {
			t.Fatalf("first %d jobs started = %v; want %v", par, running, want[:par])
		}
	}
	// From here on, each release frees exactly one worker.
	for k := par; k < n; k++ {
		close(release[want[k-par]])
		if got := <-started; got != want[k] {
			t.Fatalf("claim %d started job %d; want %d (order %v)", k, got, want[k], want)
		}
	}
	for k := n - par; k < n; k++ {
		close(release[want[k]])
	}
	<-done
}

// TestClaimOrder pins the deterministic claim order: descending cost with
// index ties stable, or plain index order without a hint.
func TestClaimOrder(t *testing.T) {
	got := claimOrder(5, func(i int) float64 { return float64(i % 3) })
	// costs: 0,1,2,0,1 → descending with stable ties: 2, 1, 4, 0, 3
	want := []int{2, 1, 4, 0, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("claimOrder = %v; want %v", got, want)
		}
	}
	got = claimOrder(4, nil)
	for i := range got {
		if got[i] != i {
			t.Fatalf("claimOrder(nil) = %v; want identity", got)
		}
	}
}

// TestMapSerialFallbackOrder checks par<=1 runs strictly in index order
// even with a cost hint (determinism of the serial path).
func TestMapSerialFallbackOrder(t *testing.T) {
	var order []int
	Map(1, 8, func(i int) { order = append(order, i) }, Options{
		Cost: func(i int) float64 { return float64(-i) },
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order[%d] = %d; want %d", i, v, i)
		}
	}
}

// TestMapPanicCarriesWorkerStack checks a job panic is re-raised in the
// caller as *Panic with the executing worker's stack.
func TestMapPanicCarriesWorkerStack(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Map did not re-panic")
		}
		p, ok := r.(*Panic)
		if !ok {
			t.Fatalf("recovered %T; want *Panic", r)
		}
		if p.Val != "boom-42" {
			t.Fatalf("Panic.Val = %v; want boom-42", p.Val)
		}
		if !strings.Contains(string(p.Stack), "sched_test.go") {
			t.Fatalf("Panic.Stack does not reference the panicking job:\n%s", p.Stack)
		}
		if msg := p.Error(); !strings.Contains(msg, "boom-42") || !strings.Contains(msg, "worker stack:") {
			t.Fatalf("Panic.Error() = %q; want value and worker stack", msg)
		}
	}()
	Map(4, 64, func(i int) {
		if i == 42 {
			panic("boom-42")
		}
	}, Options{})
}

// TestMapStopsClaimingAfterPanic checks a failed job ends the sweep: once
// the first job panics, the other workers finish the job they hold and
// claim no more, instead of running the rest of the sweep before Map
// re-raises.
func TestMapStopsClaimingAfterPanic(t *testing.T) {
	const n = 10000
	var ran atomic.Int64
	func() {
		defer func() {
			if _, ok := recover().(*Panic); !ok {
				t.Fatal("Map did not re-raise the job panic as *Panic")
			}
		}()
		Map(2, n, func(i int) {
			ran.Add(1)
			if i == 0 {
				panic("first job fails")
			}
			time.Sleep(10 * time.Microsecond)
		}, Options{})
	}()
	if got := ran.Load(); got > n/10 {
		t.Fatalf("%d of %d jobs ran after the first one panicked", got, n)
	}
}

// TestMapStatsAndTotals checks the deprecated process totals stay zero
// across a parallel, cost-hinted Map: the pool has no steals to count.
func TestMapStatsAndTotals(t *testing.T) {
	Map(4, 64, func(int) {}, Options{Cost: func(i int) float64 { return float64(i) }})
	if got := Totals(); got != (Stats{}) {
		t.Fatalf("Totals() = %+v; want zero", got)
	}
}

// BenchmarkMap measures the pool's own cost per job: 4096 no-op jobs on two
// workers, the shape benchmark/'s sched.map_ns_per_job probe times.
func BenchmarkMap(b *testing.B) {
	const jobs = 4096
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Map(2, jobs, func(int) {}, Options{})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs), "ns/job")
}
