package core

import (
	"slices"
	"testing"
)

// FuzzLayoutInvariants checks every layout kind on arbitrary geometry:
// owners are in range, PerOwner matches OwnerOf, spans cover the range
// exactly once, and ByOwner groups positions by ascending owner in input
// order.
func FuzzLayoutInvariants(f *testing.F) {
	f.Add(uint16(10), uint8(4), uint8(0), uint8(5), uint64(1))
	f.Add(uint16(257), uint8(7), uint8(3), uint8(100), uint64(99))
	f.Fuzz(func(t *testing.T, nRaw uint16, pRaw, kindRaw, lenRaw uint8, hseed uint64) {
		n := int(nRaw)%1000 + 1
		p := int(pRaw)%16 + 1
		kinds := []LayoutKind{LayoutBlocked, LayoutCyclic, LayoutHashed, LayoutSingle}
		kind := kinds[int(kindRaw)%len(kinds)]
		owner := int(hseed % uint64(p))
		l := ResolveLayout(LayoutSpec{Kind: kind, Owner: owner}, n, p, LayoutBlocked, hseed)

		off := int(lenRaw) % n
		cnt := n - off
		per := l.PerOwner(off, cnt)
		total := 0
		for o, c := range per {
			if c < 0 {
				t.Fatalf("negative count for owner %d", o)
			}
			total += c
		}
		if total != cnt {
			t.Fatalf("PerOwner covers %d of %d", total, cnt)
		}
		for i := off; i < off+cnt; i++ {
			if o := l.OwnerOf(i); o < 0 || o >= p {
				t.Fatalf("OwnerOf(%d) = %d out of range", i, o)
			}
		}
		covered := 0
		cursor := off
		l.Spans(off, cnt, func(o, so, c int) {
			if so != cursor || c <= 0 || o < 0 || o >= p {
				t.Fatalf("bad span (%d,%d,%d) at cursor %d", o, so, c, cursor)
			}
			cursor += c
			covered += c
		})
		if covered != cnt {
			t.Fatalf("spans cover %d of %d", covered, cnt)
		}

		idx := SeqIdx(off, cnt)
		slices.Reverse(idx)
		perm := make([]int, cnt)
		var b ByOwner
		b.Count(l, idx)
		for k := range idx {
			perm[b.Slot(k)] = k
		}
		start := 0
		for o, end := range b.Ends {
			if end-start != per[o] {
				t.Fatalf("owner %d's run has %d positions, PerOwner says %d", o, end-start, per[o])
			}
			for k := start; k < end; k++ {
				if l.OwnerOf(idx[perm[k]]) != o || (k > start && perm[k] <= perm[k-1]) {
					t.Fatalf("owner %d's run %v is not its positions in input order", o, perm[start:end])
				}
			}
			start = end
		}
	})
}
