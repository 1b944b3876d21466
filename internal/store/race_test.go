//go:build race

package store

// raceEnabled reports a -race build, whose allocator bookkeeping (and
// sync.Pool, which it deliberately defeats) makes byte ceilings meaningless.
const raceEnabled = true
