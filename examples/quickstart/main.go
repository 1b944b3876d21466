// Quickstart: a QSM program in ~30 lines on the native goroutine runtime.
//
// Every processor owns a block of a shared array, computes a local partial
// sum, broadcasts it (one Put per peer), and after one Sync computes its
// global prefix offset. The same function runs unchanged on the simulated
// machine — see the sorting example.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/par"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	const p = 8
	m := par.NewMachine(p, par.Options{Seed: 42})

	// Processors run concurrently; each leaves its line in its own slot,
	// printed in processor order once the run is over.
	lines := make([]string, p)
	err := m.Run(func(ctx core.Ctx) {
		id := ctx.ID()
		// A shared p-word array; word i is owned by processor i.
		sums := ctx.Register("sums", p)
		ctx.Sync()

		// Each processor "computes" a local value and publishes it.
		local := int64((id + 1) * 100)
		ctx.Put(sums, id, []int64{local})
		ctx.Sync()

		// Read everyone's value; it became visible at the Sync.
		all := make([]int64, p)
		ctx.Get(sums, 0, all)
		ctx.Sync()

		var offset int64
		for i := 0; i < id; i++ {
			offset += all[i]
		}
		lines[id] = fmt.Sprintf("processor %d: local=%d, prefix offset=%d\n", id, local, offset)
	})
	if err != nil {
		return err
	}
	for _, l := range lines {
		fmt.Fprint(w, l)
	}
	_, err = fmt.Fprintln(w, "final sums array:", m.Array("sums"))
	return err
}
