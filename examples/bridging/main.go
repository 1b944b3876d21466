// Bridging: one reduction, three models.
//
// The same global-sum computation runs (1) on the native QSM library,
// (2) through the QSM-on-BSP emulation — the bridging construction the
// paper's theory rests on — and (3) as a fine-grained LogP binomial tree.
// The printed cycle counts are the Section 2.1 model landscape in
// miniature: the emulation matches the library, and the fine-grained tree
// wins on tiny payloads where bulk synchrony cannot amortise its overhead.
//
//	go run ./examples/bridging
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/bsp"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/logp"
	"repro/internal/qsmlib"
)

const p = 16

func sumProgram(ctx core.Ctx) {
	g := collective.NewGroup(ctx, "sum")
	total := g.AllReduce([]int64{int64(ctx.ID() + 1)}, collective.Sum)
	if total[0] != p*(p+1)/2 {
		panic("wrong sum")
	}
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bridging:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	want := int64(p * (p + 1) / 2)
	fmt.Fprintf(w, "global sum of 1..%d on %d processors (want %d):\n\n", p, p, want)

	qm := qsmlib.New(p, qsmlib.Options{Seed: 1})
	if err := qm.Run(sumProgram); err != nil {
		return err
	}
	fmt.Fprintf(w, "  QSM library (bulk-synchronous):   %10d cycles\n", qm.RunStats().TotalCycles)

	em := bsp.NewQSM(p, bsp.Options{Seed: 1}, core.LayoutBlocked)
	if err := em.Run(sumProgram); err != nil {
		return err
	}
	fmt.Fprintf(w, "  QSM emulated on BSP (bridging):   %10d cycles\n", em.RunStats().TotalCycles)

	lm := logp.New(logp.Default(p))
	if err := lm.Run(1, func(pc *logp.Proc) {
		v := logp.Sum(pc, 0, int64(pc.ID()+1))
		if pc.ID() == 0 && v != want {
			panic("wrong LogP sum")
		}
	}); err != nil {
		return err
	}
	fmt.Fprintf(w, "  LogP binomial tree (fine-grained):%10d cycles\n\n", lm.Now())

	fmt.Fprintln(w, "the emulation tracks the native library (the bridging result);")
	_, err := fmt.Fprintln(w, "the fine-grained tree wins on one-word payloads (Section 2.1's trade-off).")
	return err
}
