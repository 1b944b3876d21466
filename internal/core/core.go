// Package core defines the QSM (Queuing Shared Memory) programming model:
// the architecture-neutral contract between algorithm descriptions and
// machine implementations.
//
// A QSM machine consists of p identical processors, each with private
// memory, communicating through shared memory in a sequence of synchronized
// phases. Within a phase a processor may interleave local computation,
// shared-memory reads (Get) and shared-memory writes (Put), but values
// returned by reads issued in a phase may not be used until the next phase,
// and no shared location may be both read and written in the same phase.
// Sync ends the phase.
//
// Algorithms are written once against the Ctx interface and run unchanged
// on any backend: the cycle-accurate simulated multiprocessor
// (internal/qsmlib) used to reproduce the paper's figures, or the native
// goroutine runtime (internal/par) for real parallel execution.
//
// The QSM cost model charges a phase max(m_op, g*m_rw, kappa), where m_op is
// the maximum local computation at any processor, m_rw the maximum number of
// shared-memory reads or writes by any processor, and kappa the maximum
// contention to any single shared location. The symmetric variant s-QSM
// charges max(m_op, g*m_rw, g*kappa). Package core provides both charges,
// and BSP's and LogP's, as Model values, and the per-phase accounting that
// feeds them (see RunProfiled).
package core

import (
	"math/rand"

	"repro/internal/cpu"
)

// Handle names a registered shared-memory array.
type Handle int

// InvalidHandle is returned for failed registrations.
const InvalidHandle Handle = -1

// Ctx is the per-processor view of a QSM machine. All methods must be
// called from the processor's own program function.
type Ctx interface {
	// ID returns this processor's index in [0, P()).
	ID() int
	// P returns the number of processors.
	P() int

	// Register allocates (or, on processors other than the first caller,
	// resolves) a shared array of n 64-bit words under the given name, in
	// the backend's default layout. All processors must register the same
	// name with the same size in the same phase, and a Sync must complete
	// before the array is read. Writes (Put, PutIndexed, WriteLocal) may
	// follow the registration in the same phase.
	Register(name string, n int) Handle
	// RegisterSpec is Register with an explicit data layout.
	RegisterSpec(name string, n int, spec LayoutSpec) Handle
	// Free un-registers a shared array (the appendix's "un-register and
	// deallocate temporary structures"). All processors must free the same
	// handle in the same phase, after a Sync has retired every outstanding
	// access; subsequent accesses panic. The name becomes reusable.
	Free(h Handle)

	// The buffers of the four calls below follow three rules:
	//   - A put copies src (and idx) when it is called: the caller may
	//     reuse them at once.
	//   - A get keeps idx and dst until Sync returns and may fill dst at
	//     any point inside Sync, so both stay unchanged and unread until
	//     then, and dst must not alias a registered array.
	//   - Two gets of one phase whose destinations overlap are undefined.

	// Put enqueues a write of src to h[off : off+len(src)]. The write
	// becomes visible to readers only after the next Sync.
	Put(h Handle, off int, src []int64)
	// Get enqueues a read of h[off : off+len(dst)] into dst. dst is filled
	// with the values the locations held at the start of the Sync.
	Get(h Handle, off int, dst []int64)
	// PutIndexed enqueues scattered writes: h[idx[i]] = src[i].
	PutIndexed(h Handle, idx []int, src []int64)
	// GetIndexed enqueues scattered reads: dst[i] = h[idx[i]], with the
	// values the locations held at the start of the Sync.
	GetIndexed(h Handle, idx []int, dst []int64)

	// ReadLocal immediately reads h[off : off+len(dst)] into dst. Every
	// word in the range must be owned by this processor: such words live in
	// its private memory, so the access is local computation, not
	// communication, and needs no Sync. It sees the state committed by the
	// last Sync.
	ReadLocal(h Handle, off int, dst []int64)
	// WriteLocal immediately writes src to h[off : off+len(src)], which
	// must be entirely owned by this processor. Used to place distributed
	// input and results without charging communication.
	WriteLocal(h Handle, off int, src []int64)

	// Sync ends the current phase: all enqueued Puts are applied, all
	// enqueued Gets are satisfied, and all processors synchronize.
	Sync()

	// Compute charges the local computation described by b to this
	// processor. On the simulated backend it advances simulated time by the
	// node model's cost; on the native backend the work is real and Compute
	// only records the charge for cost accounting.
	Compute(b cpu.OpBlock)

	// Rand returns this processor's deterministic private random source.
	Rand() *rand.Rand
}

// Program is a QSM algorithm: it runs once on every processor.
type Program func(Ctx)

// LayoutKind selects how a shared array's words map to owning processors.
type LayoutKind int

// Layout kinds.
const (
	// LayoutDefault defers to the backend's configured default.
	LayoutDefault LayoutKind = iota
	// LayoutBlocked gives processor k words [k*ceil(n/p), (k+1)*ceil(n/p)).
	LayoutBlocked
	// LayoutCyclic gives word i to processor i mod p.
	LayoutCyclic
	// LayoutHashed gives word i to a pseudorandom processor (the randomized
	// layout of the QSM implementation contract).
	LayoutHashed
	// LayoutSingle places every word on the processor named by
	// LayoutSpec.Owner.
	LayoutSingle
)

// LayoutSpec names an explicit array layout.
type LayoutSpec struct {
	Kind  LayoutKind
	Owner int // for LayoutSingle
}

// Params are the QSM model's two architectural parameters.
type Params struct {
	P int     // number of processors
	G float64 // gap: local instruction rate / remote communication rate
}
