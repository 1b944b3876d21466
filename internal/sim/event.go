package sim

import (
	"fmt"
	"math/bits"
)

// The pending-event queue holds no pointers. A pending event is a ref, 32
// bits naming what fires: the top two bits are its kind, the low refBits an
// index.
//
//   - refProc: resume e.procs[index], a coroutine process.
//   - refStep: step e.steps[index], a state-machine process.
//   - refCall: slot index of the engine's call slab, a callback (At, After,
//     Signal.FireAfter) or a value in flight to a channel (Chan.SendAfter).
//
// Process wakes, the hot case, are the ref alone; only a call writes a slab
// slot, and fired slots are reused through an index free list.
const refBits = 30

const (
	refProc uint32 = iota << refBits
	refStep
	refCall
)

// refIndex masks a ref's index.
const refIndex = 1<<refBits - 1

// newRef builds the ref of index i of a kind, panicking at the 2^30 bound;
// what names the table for the message.
func newRef(kind uint32, i int, what string) uint32 {
	if i > refIndex {
		panic(fmt.Sprintf("sim: more than 2^%d %s on one engine", refBits, what))
	}
	return kind | uint32(i)
}

// call is a slab slot: fn to run, or val to deliver to ch.
type call struct {
	fn  func()
	ch  *Chan
	val interface{}
}

// eventKey is a heap entry: the (at, seq) order key inline, so a sift
// compares without loading through a pointer, and the ref of what fires.
// Equal times fire in scheduling order, which makes runs reproducible.
type eventKey struct {
	at  Time
	seq uint64
	ref uint32
}

// before reports whether a fires before b: the borrow out of the 128-bit
// subtraction (a.at, a.seq) − (b.at, b.seq), with no data-dependent branch.
func before(a, b eventKey) bool {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return borrow != 0
}

// b2i is 1 for true and 0 for false; it compiles to a SETcc, not a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// eventHeap is a 4-ary min-heap of keys. The wide node halves the depth of
// a binary heap, and the monomorphic methods avoid container/heap's
// interface boxing on every push and pop.
type eventHeap []eventKey

// push inserts k, sifting it up to its (at, seq) position.
func (h *eventHeap) push(k eventKey) {
	q := append(*h, k)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !before(k, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = k
	*h = q
}

// popMin removes and returns the earliest key. The heap must not be empty.
func (h *eventHeap) popMin() eventKey {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	// Sift last down from the root's hole.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		if first+3 < n {
			// A full node: a branch-free tournament of two pairs. Random
			// keys would mispredict the loop's compare-and-jump below.
			lo := first + b2i(before(q[first+1], q[first]))
			hi := first + 2 + b2i(before(q[first+3], q[first+2]))
			best = lo + (hi-lo)*b2i(before(q[hi], q[lo]))
		} else {
			for c := first + 1; c < n; c++ {
				if before(q[c], q[best]) {
					best = c
				}
			}
		}
		if !before(q[best], last) {
			break
		}
		q[i] = q[best]
		i = best
	}
	q[i] = last
	return top
}

// refRing is the engine's same-instant FIFO: events scheduled for the
// current instant bypass the heap and drain in append order. Append order
// is scheduling order, the order events that share a time must fire in, so
// the ring keeps the determinism invariant while turning a sift per
// same-time event into O(1) ring operations. Its capacity is a power of
// two, so wrapping is a mask.
type refRing struct {
	refs  []uint32
	head  int
	count int
}

func (r *refRing) push(ref uint32) {
	if r.count == len(r.refs) {
		r.grow()
	}
	r.refs[(r.head+r.count)&(len(r.refs)-1)] = ref
	r.count++
}

// pop removes and returns the oldest ref. The ring must not be empty.
func (r *refRing) pop() uint32 {
	ref := r.refs[r.head]
	r.head = (r.head + 1) & (len(r.refs) - 1)
	r.count--
	return ref
}

func (r *refRing) grow() {
	nb := make([]uint32, max(2*len(r.refs), 16))
	for i := 0; i < r.count; i++ {
		nb[i] = r.refs[(r.head+i)&(len(r.refs)-1)]
	}
	r.refs = nb
	r.head = 0
}
