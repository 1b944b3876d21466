package algorithms

// sortInt64s sorts a ascending, into the order slices.Sort gives. It is an
// LSD radix sort over the eight bytes of each key with the sign bit flipped,
// so that unsigned byte order is signed key order. One counting pass fills
// all eight histograms. The passes alternate between a and a scratch slice
// allocated here, so that the scratch is live only while the sort runs;
// after the eighth pass the keys are back in a.
func sortInt64s(a []int64) {
	n := len(a)
	if n < 2 {
		return
	}
	const flip = 1 << 63
	var count [8][256]int
	for _, v := range a {
		u := uint64(v) ^ flip
		count[0][byte(u)]++
		count[1][byte(u>>8)]++
		count[2][byte(u>>16)]++
		count[3][byte(u>>24)]++
		count[4][byte(u>>32)]++
		count[5][byte(u>>40)]++
		count[6][byte(u>>48)]++
		count[7][byte(u>>56)]++
	}
	src, dst := a, make([]int64, n)
	for d := range count {
		shift := 8 * uint(d)
		c := &count[d]
		sum := 0
		for i, k := range c {
			c[i] = sum
			sum += k
		}
		for _, v := range src {
			b := byte((uint64(v) ^ flip) >> shift)
			dst[c[b]] = v
			c[b]++
		}
		src, dst = dst, src
	}
}

// lowerBound returns the number of pivots below v, the index
// slices.BinarySearch(pivots, v) returns, for sorted pivots. The halving
// step adds half times a 0/1 comparison result instead of branching on it,
// so it compiles to a flag set rather than a conditional jump the branch
// predictor misses half the time on random keys.
func lowerBound(pivots []int64, v int64) int {
	n := len(pivots)
	if n == 0 {
		return 0
	}
	base := 0
	for n > 1 {
		half := n / 2
		base += half * b2i(pivots[base+half-1] < v)
		n -= half
	}
	return base + b2i(pivots[base] < v)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
