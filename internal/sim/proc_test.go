package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/obs"
)

// A script is one process's behaviour as data, so the same schedule can be
// executed by a coroutine Proc (straight-line interpreter) and by a StepProc
// (the same interpreter unrolled into a state machine).
type opKind int

const (
	opSleep     opKind = iota // Advance(d) / Sleep(d); d may be 0 (Yield)
	opSend                    // ch.SendAfter(d, value)
	opRecv                    // ch.Recv / RecvStep
	opWait                    // sig.Wait / WaitStep
	opFire                    // sig.Fire
	opFireAfter               // sig.FireAfter(d)
	opTimer                   // engine callback d cycles from now
)

type scriptOp struct {
	kind opKind
	d    Time
	obj  int // channel or signal index
}

type schedule struct {
	scripts [][]scriptOp
	chans   int
	sigs    int
	// rescue are times at which every signal fires, so most waiters wake up
	// eventually; a schedule that deadlocks anyway must do so identically.
	rescue []Time
}

// randomSchedule draws a schedule heavy in the cases where the two process
// kinds could come apart: zero-length sleeps, several processes waking at the
// same instant, and wake-ups racing timers and deliveries.
func randomSchedule(rng *rand.Rand) schedule {
	s := schedule{chans: 1 + rng.Intn(3), sigs: 1 + rng.Intn(2)}
	procs := 1 + rng.Intn(5)
	delays := []Time{0, 0, 1, 1, 2, 3, 5, 8, 40}
	s.scripts = make([][]scriptOp, procs)
	tails := make([][]scriptOp, procs)
	for p := range s.scripts {
		n := 4 + rng.Intn(12)
		for i := 0; i < n; i++ {
			op := scriptOp{d: delays[rng.Intn(len(delays))]}
			switch r := rng.Intn(20); {
			case r < 9:
				op.kind = opSleep
			case r < 14:
				op.kind = opTimer
			case r < 15:
				op.kind, op.obj = opWait, rng.Intn(s.sigs)
			case r < 16:
				op.kind, op.obj = opFire, rng.Intn(s.sigs)
			case r < 17:
				op.kind, op.obj = opFireAfter, rng.Intn(s.sigs)
			default:
				// A send here and its receive in a random script, so
				// receives never outnumber sends. The receive goes in the
				// middle of a script generated later, or else at the very end
				// of its script, which keeps circular waits rare.
				op.kind, op.obj = opSend, rng.Intn(s.chans)
				recv := scriptOp{kind: opRecv, obj: op.obj}
				if q := rng.Intn(procs); q > p {
					s.scripts[q] = append(s.scripts[q], recv)
				} else {
					tails[q] = append(tails[q], recv)
				}
			}
			s.scripts[p] = append(s.scripts[p], op)
		}
	}
	for p := range s.scripts {
		s.scripts[p] = append(s.scripts[p], tails[p]...)
	}
	for t := Time(25); t <= 1500; t += 25 {
		s.rescue = append(s.rescue, t)
	}
	return s
}

// outcome is everything a run of a schedule exposes.
type outcome struct {
	log     []string
	events  uint64
	now     Time
	err     string
	metrics string // "" without a recorder
}

func runSchedule(s schedule, asSteps, observe bool) outcome {
	var out outcome
	e := NewEngine()
	var rec *obs.Recorder
	if observe {
		rec = obs.New(obs.Config{Metrics: true})
		e.Observe(rec)
	}
	chans := make([]*Chan, s.chans)
	for i := range chans {
		chans[i] = e.NewChan()
	}
	sigs := make([]*Signal, s.sigs)
	for i := range sigs {
		sigs[i] = e.NewSignal()
	}
	// Each log line also samples the queue-depth gauge, so an observed run's
	// depth series is compared point by point, not just by its last value
	// and high-water mark.
	var depthSeries strings.Builder
	logf := func(format string, args ...interface{}) {
		out.log = append(out.log, fmt.Sprintf("t=%d ", e.Now())+fmt.Sprintf(format, args...))
		if rec != nil {
			fmt.Fprintf(&depthSeries, "%d ", rec.Gauge("sim", "queue_depth", "").Value())
		}
	}
	for _, t := range s.rescue {
		e.At(t, func() {
			logf("rescue")
			for _, sig := range sigs {
				sig.Fire()
			}
		})
	}
	// instant performs a non-blocking op; both interpreters share it.
	instant := func(id, pc int, op scriptOp) {
		switch op.kind {
		case opSend:
			logf("p%d/%d send ch%d +%d", id, pc, op.obj, op.d)
			chans[op.obj].SendAfter(op.d, id*1000+pc)
		case opFire:
			logf("p%d/%d fire s%d", id, pc, op.obj)
			sigs[op.obj].Fire()
		case opFireAfter:
			logf("p%d/%d fire s%d +%d", id, pc, op.obj, op.d)
			sigs[op.obj].FireAfter(op.d)
		case opTimer:
			logf("p%d/%d timer +%d", id, pc, op.d)
			e.After(op.d, func() { logf("timer of p%d/%d", id, pc) })
		}
	}
	for id, ops := range s.scripts {
		id, ops := id, ops
		name := fmt.Sprintf("p%d", id)
		if asSteps {
			pc := 0
			e.SpawnStep(name, func(sp *StepProc) Status {
				for pc < len(ops) {
					op := ops[pc]
					switch op.kind {
					case opSleep:
						logf("p%d/%d sleep %d", id, pc, op.d)
						pc++
						return sp.Sleep(op.d)
					case opRecv:
						v, ok, st := chans[op.obj].RecvStep(sp)
						if !ok {
							return st
						}
						logf("p%d/%d recv ch%d = %v", id, pc, op.obj, v)
					case opWait:
						logf("p%d/%d wait s%d", id, pc, op.obj)
						pc++
						return sigs[op.obj].WaitStep(sp)
					default:
						instant(id, pc, op)
					}
					pc++
				}
				logf("p%d done", id)
				return StepDone
			})
			continue
		}
		e.Spawn(name, func(p *Proc) {
			for pc, op := range ops {
				switch op.kind {
				case opSleep:
					logf("p%d/%d sleep %d", id, pc, op.d)
					if op.d == 0 && pc%2 == 0 {
						p.Yield()
					} else {
						p.Advance(op.d)
					}
				case opRecv:
					v := chans[op.obj].Recv(p)
					logf("p%d/%d recv ch%d = %v", id, pc, op.obj, v)
				case opWait:
					logf("p%d/%d wait s%d", id, pc, op.obj)
					sigs[op.obj].Wait(p)
				default:
					instant(id, pc, op)
				}
			}
			logf("p%d done", id)
		})
	}
	if err := e.Run(); err != nil {
		out.err = err.Error()
	}
	out.events, out.now = e.Events(), e.Now()
	if rec != nil {
		var buf bytes.Buffer
		if err := rec.WriteMetricsJSON(&buf); err != nil {
			panic(err)
		}
		depth := rec.Gauge("sim", "queue_depth", "")
		dwell := rec.FindHistogram("sim", "blocked_dwell_cycles", "")
		out.metrics = fmt.Sprintf("depth last=%d max=%d series=%s\ndwell n=%d sum=%v\n%s",
			depth.Value(), depth.Max(), depthSeries.String(), dwell.Count(), dwell.Sum(), buf.String())
	}
	e.Reset() // unwind coroutines a deadlock left suspended
	return out
}

// TestProcStepProcDifferential runs random schedules as coroutine processes
// and as state-machine processes, observed and not, and requires one
// behaviour: the same operation order at the same times, the same event
// count, final clock and error (deadlock reports included), and the same
// sim obs series, the queue-depth gauge compared sample by sample.
func TestProcStepProcDifferential(t *testing.T) {
	completed, deadlocked := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		s := randomSchedule(rand.New(rand.NewSource(seed)))
		ref := runSchedule(s, true, true)
		if ref.err == "" {
			completed++
		} else {
			deadlocked++
		}
		for _, mode := range []struct {
			asSteps bool
			observe bool
		}{
			{false, true}, {false, false}, {true, false},
		} {
			got := runSchedule(s, mode.asSteps, mode.observe)
			name := fmt.Sprintf("seed %d steps=%v observe=%v", seed, mode.asSteps, mode.observe)
			if a, b := strings.Join(ref.log, "\n"), strings.Join(got.log, "\n"); a != b {
				t.Fatalf("%s: operation order diverges from steps/observed\nwant:\n%s\ngot:\n%s", name, a, b)
			}
			if got.events != ref.events || got.now != ref.now || got.err != ref.err {
				t.Fatalf("%s: events/now/err = %d/%d/%q, want %d/%d/%q", name,
					got.events, got.now, got.err, ref.events, ref.now, ref.err)
			}
			if mode.observe && got.metrics != ref.metrics {
				t.Fatalf("%s: obs series diverge\nwant:\n%s\ngot:\n%s", name, ref.metrics, got.metrics)
			}
		}
	}
	// Both endings must be compared: deadlock reports carry wait reasons and
	// block times that the two kinds record separately.
	if completed == 0 || deadlocked == 0 {
		t.Errorf("schedules cover %d completed and %d deadlocked runs, want both", completed, deadlocked)
	}
}

// TestStopThenAdvance stops the engine from inside a process and then
// advances: the process must be left suspended at that Advance, not run past
// the stop, and Reset must unwind it through its defers.
func TestStopThenAdvance(t *testing.T) {
	e := NewEngine()
	ranPast, cleaned := false, false
	e.Spawn("p", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Advance(10)
		e.Stop()
		p.Advance(5)
		ranPast = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ranPast || e.Now() != 10 || e.Events() != 2 {
		t.Errorf("after Stop: ranPast=%v now=%d events=%d, want false/10/2", ranPast, e.Now(), e.Events())
	}
	if cleaned {
		t.Error("process unwound before Reset")
	}
	e.Reset()
	if !cleaned || ranPast {
		t.Errorf("after Reset: cleaned=%v ranPast=%v, want true/false", cleaned, ranPast)
	}
}

// TestProcPanicIsRunError: wherever in its life a body panics — before its
// first block or after a resume, while another process is suspended — the
// panic is recorded and reported by Run. It must never escape through the
// coroutine resume into the event loop.
func TestProcPanicIsRunError(t *testing.T) {
	for name, body := range map[string]func(*Proc){
		"at start":            func(p *Proc) { panic("kaboom") },
		"after a resume":      func(p *Proc) { p.Advance(1); p.Advance(1); panic("kaboom") },
		"runtime error value": func(p *Proc) { var m map[int]int; m[0] = 1 },
	} {
		t.Run(name, func(t *testing.T) {
			e := NewEngine()
			e.Spawn("bystander", func(p *Proc) {
				for i := 0; i < 5; i++ {
					p.Advance(1)
				}
			})
			e.Spawn("boom", body)
			var err error
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panic escaped Run: %v", r)
					}
				}()
				err = e.Run()
			}()
			if err == nil || !strings.Contains(err.Error(), `"boom"`) {
				t.Fatalf("Run error = %v, want one naming process \"boom\"", err)
			}
			e.Reset()
		})
	}
}
