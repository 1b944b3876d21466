package core

import "math"

// PhaseProfile records, for one bulk-synchronous phase, the quantities the
// cost models charge for. Slices are indexed by processor.
type PhaseProfile struct {
	// Ops is per-processor local computation, in operations (the unit QSM's
	// m_op is expressed in).
	Ops []uint64
	// OpCycles is per-processor local computation in model cycles.
	OpCycles []uint64
	// RW is the per-processor count of remote shared-memory words read or
	// written (m_rw excludes accesses a processor makes to its own
	// partition, which need no communication).
	RW []uint64
	// SentWords and RecvWords are per-processor h-relation sides for
	// BSP/LogP charging.
	SentWords []uint64
	RecvWords []uint64
	// Msgs is the per-processor message count (for LogP's overhead term).
	Msgs []uint64
	// Kappa is the maximum number of accesses to any single shared word, or
	// 0 if contention tracking was disabled.
	Kappa uint64
}

// MaxOps returns m_op: the maximum local operations on any processor.
func (ph *PhaseProfile) MaxOps() uint64 { return maxOf(ph.Ops) }

// MaxOpCycles returns the maximum local cycles on any processor.
func (ph *PhaseProfile) MaxOpCycles() uint64 { return maxOf(ph.OpCycles) }

// MaxRW returns m_rw: the maximum remote words accessed by any processor.
func (ph *PhaseProfile) MaxRW() uint64 { return maxOf(ph.RW) }

// MaxH returns the BSP h-relation: the maximum over processors of
// max(sent, received) words.
func (ph *PhaseProfile) MaxH() uint64 {
	h := maxOf(ph.SentWords)
	if r := maxOf(ph.RecvWords); r > h {
		h = r
	}
	return h
}

// MaxMsgs returns the maximum messages sent by any processor.
func (ph *PhaseProfile) MaxMsgs() uint64 { return maxOf(ph.Msgs) }

func maxOf(xs []uint64) uint64 {
	var m uint64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Cost is one phase's charge under a Model, in the model's own unit, split
// into local computation, communication and synchronization.
type Cost struct {
	Compute, Comm, Sync float64
}

// Model prices one phase of a profiled run.
type Model interface {
	PhaseCost(ph *PhaseProfile) Cost
}

// QSM charges a phase max(m_op, g*m_rw, kappa), in operation units.
type QSM struct{ G float64 }

// PhaseCost implements Model.
func (m QSM) PhaseCost(ph *PhaseProfile) Cost {
	return Cost{
		Compute: float64(ph.MaxOps()),
		Comm:    math.Max(m.G*float64(ph.MaxRW()), float64(ph.Kappa)),
	}
}

// SQSM is the symmetric QSM: contention is charged at the gap too,
// max(m_op, g*m_rw, g*kappa).
type SQSM struct{ G float64 }

// PhaseCost implements Model.
func (m SQSM) PhaseCost(ph *PhaseProfile) Cost {
	return Cost{
		Compute: float64(ph.MaxOps()),
		Comm:    math.Max(m.G*float64(ph.MaxRW()), m.G*float64(ph.Kappa)),
	}
}

// BSP charges a phase max(m_op_cycles, g*h) + L: the h-relation plus the
// per-phase synchronization term the QSM omits.
type BSP struct{ G, L float64 }

// PhaseCost implements Model.
func (m BSP) PhaseCost(ph *PhaseProfile) Cost {
	return Cost{
		Compute: float64(ph.MaxOpCycles()),
		Comm:    m.G * float64(ph.MaxH()),
		Sync:    m.L,
	}
}

// LogP charges a phase max(m_op_cycles, 2*o*msgs + g*h) + l: per-message
// overhead at sender and receiver, bandwidth, and one pipelined latency.
type LogP struct{ G, L, O float64 }

// PhaseCost implements Model.
func (m LogP) PhaseCost(ph *PhaseProfile) Cost {
	return Cost{
		Compute: float64(ph.MaxOpCycles()),
		Comm:    2*m.O*float64(ph.MaxMsgs()) + m.G*float64(ph.MaxH()),
		Sync:    m.L,
	}
}

// Profile is the sequence of phase profiles of a complete run.
type Profile struct {
	P      int
	Phases []*PhaseProfile
}

// Time sums m's charge over all phases, max(Compute, Comm) + Sync each:
// computation and communication overlap, synchronization does not.
func (pr *Profile) Time(m Model) float64 {
	var t float64
	for _, ph := range pr.Phases {
		c := m.PhaseCost(ph)
		t += math.Max(c.Compute, c.Comm) + c.Sync
	}
	return t
}

// CommTime is Time without the local-computation term, Comm + Sync per
// phase; the paper's prediction lines chart communication separately.
func (pr *Profile) CommTime(m Model) float64 {
	var t float64
	for _, ph := range pr.Phases {
		c := m.PhaseCost(ph)
		t += c.Comm + c.Sync
	}
	return t
}

// NumPhases returns the number of recorded phases.
func (pr *Profile) NumPhases() int { return len(pr.Phases) }

// TotalRemoteWords returns the sum over phases of the aggregate (not max)
// remote words, a measure of total communication volume W.
func (pr *Profile) TotalRemoteWords() uint64 {
	var w uint64
	for _, ph := range pr.Phases {
		for _, x := range ph.RW {
			w += x
		}
	}
	return w
}
