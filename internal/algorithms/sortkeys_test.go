package algorithms

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// FuzzSortInt64s checks sortInt64s against slices.Sort and lowerBound
// against slices.BinarySearch. The first len(raw)/8 keys are raw's bytes
// verbatim; the rest are drawn from seed, in a range that spread%64 narrows
// (down to {-1, 0} at 63) so ties are common. Spread's bit 6 mixes in
// MinInt64, MaxInt64, 0 and -1; its bit 7 makes the keys non-negative, so
// that most radix passes see one byte value and must keep the order they
// were given. The pivots are p-1 sorted keys, p = 1 + spread%17, so p = 1
// has none.
func FuzzSortInt64s(f *testing.F) {
	extremes := make([]byte, 0, 32)
	for _, v := range []int64{math.MaxInt64, math.MinInt64, -1, 0} {
		extremes = binary.LittleEndian.AppendUint64(extremes, uint64(v))
	}
	f.Add(extremes, uint16(4), int64(1), uint8(0))
	f.Add([]byte{}, uint16(0), int64(1), uint8(16))
	for _, n := range []uint16{1, 2, 3, 255, 256, 1000} {
		seed := int64(n) + 1                  // never a multiple of 5
		f.Add([]byte{}, n, seed, uint8(0))    // full range, both signs, p = 1
		f.Add(extremes, n, seed, uint8(0x40)) // extremes mixed in, p = 14
		f.Add([]byte{}, n, seed, uint8(63))   // keys in {-1, 0}, p = 13
		f.Add([]byte{}, n, seed, uint8(54))   // keys in [-512, 512), p = 4
		f.Add([]byte{}, n, seed, uint8(184))  // keys in [0, 256): one byte varies, p = 15
	}
	f.Add(extremes[8:16], uint16(600), int64(2), uint8(63)) // MinInt64 among {-1, 0}
	f.Add([]byte{}, uint16(256), int64(5), uint8(30))       // all equal
	f.Fuzz(func(t *testing.T, raw []byte, n uint16, seed int64, spread uint8) {
		rng := rand.New(rand.NewSource(seed))
		keys := make([]int64, int(n)%1100)
		for i := range keys {
			if 8*i+8 <= len(raw) {
				keys[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
				continue
			}
			u := rng.Uint64()
			keys[i] = int64(u) >> (spread % 64)
			if spread&0x80 != 0 {
				keys[i] = int64(u >> (spread % 64))
			}
			if spread&0x40 != 0 && rng.Intn(8) == 0 {
				keys[i] = []int64{math.MinInt64, math.MaxInt64, 0, -1}[rng.Intn(4)]
			}
		}
		if seed%5 == 0 { // all equal
			for i := range keys {
				keys[i] = keys[0]
			}
		}

		want := slices.Clone(keys)
		slices.Sort(want)
		got := slices.Clone(keys)
		sortInt64s(got)
		if !slices.Equal(got, want) {
			t.Fatalf("sortInt64s(%d keys) differs from slices.Sort:\n got %v\nwant %v", len(keys), got, want)
		}

		p := 1 + int(spread)%17
		pivots := make([]int64, 0, p-1)
		for k := 1; k < p && len(keys) > 0; k++ {
			pivots = append(pivots, keys[rng.Intn(len(keys))])
		}
		slices.Sort(pivots)
		probe := func(v int64) {
			want, _ := slices.BinarySearch(pivots, v)
			if got := lowerBound(pivots, v); got != want {
				t.Fatalf("lowerBound(%v, %d) = %d, want %d", pivots, v, got, want)
			}
		}
		for _, v := range keys {
			probe(v)
		}
		for _, v := range pivots {
			if v > math.MinInt64 {
				probe(v - 1)
			}
			if v < math.MaxInt64 {
				probe(v + 1)
			}
		}
		probe(math.MinInt64)
		probe(math.MaxInt64)
	})
}
