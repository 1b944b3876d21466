package main

import (
	"strings"
	"testing"
)

// TestRunOutput pins the example's whole output at its default list
// length: the latency sweep's cycles and ratios.
func TestRunOutput(t *testing.T) {
	const want = `list ranking, n=65536, p=16
latency l      total cycles     comm cycles      comm vs l=1600
1600           24416215         23368237         1.00x
6400           25043952         23995974         1.03x
25600          28958874         27910896         1.19x
102400         48360763         47312785         2.02x
409600         133879075        132831097        5.68x

ranks verified against sequential traversal at every latency
`
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Errorf("output differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}
