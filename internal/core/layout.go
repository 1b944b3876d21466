package core

import "repro/internal/stats"

// Layout is a resolved array layout: the mapping from word indices to
// owning processors, shared by all backends.
type Layout struct {
	Kind  LayoutKind
	P     int
	N     int
	Block int    // words per block for LayoutBlocked
	Owner int    // for LayoutSingle
	HSeed uint64 // for LayoutHashed
}

// ResolveLayout turns a LayoutSpec into a concrete Layout for an n-word
// array on p processors. def replaces LayoutDefault; hseed salts the hashed
// mapping.
func ResolveLayout(spec LayoutSpec, n, p int, def LayoutKind, hseed uint64) Layout {
	kind := spec.Kind
	if kind == LayoutDefault {
		kind = def
	}
	if kind == LayoutDefault {
		kind = LayoutBlocked
	}
	block := (n + p - 1) / p
	if block == 0 {
		block = 1
	}
	return Layout{Kind: kind, P: p, N: n, Block: block, Owner: spec.Owner, HSeed: hseed}
}

// OwnerOf returns the processor owning word i.
func (l Layout) OwnerOf(i int) int {
	switch l.Kind {
	case LayoutCyclic:
		return i % l.P
	case LayoutHashed:
		return int(stats.Mix64(l.HSeed, uint64(i)) % uint64(l.P))
	case LayoutSingle:
		return l.Owner
	default:
		o := i / l.Block
		if o >= l.P {
			o = l.P - 1
		}
		return o
	}
}

// PerOwner returns how many words of [off, off+n) each processor owns.
func (l Layout) PerOwner(off, n int) []int {
	per := make([]int, l.P)
	switch l.Kind {
	case LayoutBlocked, LayoutDefault:
		l.Spans(off, n, func(owner, off, cnt int) { per[owner] += cnt })
	case LayoutSingle:
		per[l.Owner] = n
	case LayoutCyclic:
		base := n / l.P
		for o := range per {
			per[o] = base
		}
		for i := off + base*l.P; i < off+n; i++ {
			per[i%l.P]++
		}
	default:
		for i := off; i < off+n; i++ {
			per[l.OwnerOf(i)]++
		}
	}
	return per
}

// Spans calls fn(owner, off, count) for each maximal same-owner run of
// [off, off+n), in address order. For blocked and single layouts the number
// of spans is small; for cyclic and hashed it degenerates to per-word calls.
func (l Layout) Spans(off, n int, fn func(owner, off, cnt int)) {
	switch l.Kind {
	case LayoutSingle:
		if n > 0 {
			fn(l.Owner, off, n)
		}
	case LayoutBlocked, LayoutDefault:
		for n > 0 {
			o := l.OwnerOf(off)
			end := (off/l.Block + 1) * l.Block
			if o == l.P-1 {
				end = off + n
			}
			take := end - off
			if take > n {
				take = n
			}
			fn(o, off, take)
			off += take
			n -= take
		}
	default:
		for n > 0 {
			o := l.OwnerOf(off)
			cnt := 1
			for cnt < n && l.OwnerOf(off+cnt) == o {
				cnt++
			}
			fn(o, off, cnt)
			off += cnt
			n -= cnt
		}
	}
}

// ByOwner is the counting pass that splits a scattered access by owner
// without maps: Count, then Slot for every position in input order, puts
// the positions in ascending owner order, input order within an owner. A
// backend keeps one per processor and reuses its scratch.
type ByOwner struct {
	owner []int32
	// Count sets Ends[o] to where owner o's run starts and each Slot
	// advances its owner's entry, so once every position is placed Ends[o]
	// is where the run ends (and the next owner's starts).
	Ends []int
}

// Count records the owner of each index of idx and sizes the runs.
func (b *ByOwner) Count(l Layout, idx []int) {
	if cap(b.owner) < len(idx) {
		b.owner = make([]int32, len(idx))
	}
	b.owner = b.owner[:len(idx)]
	if len(b.Ends) != l.P {
		b.Ends = make([]int, l.P)
	}
	clear(b.Ends)
	for k, ix := range idx {
		o := l.OwnerOf(ix)
		b.owner[k] = int32(o)
		b.Ends[o]++
	}
	start := 0
	for o, n := range b.Ends {
		b.Ends[o] = start
		start += n
	}
}

// Slot returns where position k of the counted idx goes in the grouped
// order. Call it once per position, in input order.
func (b *ByOwner) Slot(k int) int {
	o := b.owner[k]
	s := b.Ends[o]
	b.Ends[o] = s + 1
	return s
}

// SeqIdx returns the indices off, off+1, ..., off+n-1.
func SeqIdx(off, n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = off + i
	}
	return idx
}

// OwnsRange reports whether proc owns every word of [off, off+n).
func (l Layout) OwnsRange(proc, off, n int) bool {
	switch l.Kind {
	case LayoutSingle:
		return l.Owner == proc
	case LayoutBlocked, LayoutDefault:
		if n <= 0 {
			return true
		}
		return l.OwnerOf(off) == proc && l.OwnerOf(off+n-1) == proc
	default:
		for i := off; i < off+n; i++ {
			if l.OwnerOf(i) != proc {
				return false
			}
		}
		return true
	}
}
