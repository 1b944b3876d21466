package main

import (
	"strings"
	"testing"
)

// TestRunOutput pins the example's whole output: the phase table and the
// four model charges of one seeded run.
func TestRunOutput(t *testing.T) {
	const want = `histogram of 262144 values in 256 buckets: mass 262144 (expect 262144)

phase   m_op       m_rw       h        msgs     kappa
0       0          0          0        0        0
1       122880     0          0        0        0
2       0          240        240      15       1
3       1024       0          0        0        0

model charges for the whole run:
  QSM    max(m_op, g*m_rw, kappa)      = 198784 cycles
  s-QSM  max(m_op, g*m_rw, g*kappa)    = 198784 cycles
  BSP    sum max(m_op, g*h) + L/phase  = 358556 cycles
  LogP   2o*msgs + g*h + l per phase   = 93280 cycles (comm only)

measured on the simulated machine: total 472196, comm 391080 cycles
bulk-synchrony rules checked: no word read and written in one phase
`
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Errorf("output differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}
