package main

import (
	"strings"
	"testing"
)

// TestRunOutput pins the example's whole output, in processor order.
func TestRunOutput(t *testing.T) {
	const want = `processor 0: local=100, prefix offset=0
processor 1: local=200, prefix offset=100
processor 2: local=300, prefix offset=300
processor 3: local=400, prefix offset=600
processor 4: local=500, prefix offset=1000
processor 5: local=600, prefix offset=1500
processor 6: local=700, prefix offset=2100
processor 7: local=800, prefix offset=2800
final sums array: [100 200 300 400 500 600 700 800]
`
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Errorf("output differs:\n got:\n%s\nwant:\n%s", got, want)
	}
}
