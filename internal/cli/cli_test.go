package cli

import (
	"errors"
	"flag"
	"io"
	"testing"
)

func TestExitCode(t *testing.T) {
	parse := func(args ...string) error {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Bool("v", false, "")
		return Parse(fs, args)
	}
	for _, c := range []struct {
		name string
		err  error
		want int
	}{
		{"success", nil, 0},
		{"help", parse("-h"), 0},
		{"bad flag", parse("-x"), 2},
		{"usage", Usagef("cannot combine -%s", "a"), 2},
		{"wrapped usage", errors.Join(errors.New("ctx"), Usagef("bad")), 2},
		{"failure", errors.New("disk full"), 1},
	} {
		if got := ExitCode(c.err); got != c.want {
			t.Errorf("%s: ExitCode(%v) = %d, want %d", c.name, c.err, got, c.want)
		}
	}
	if err := parse("-v"); err != nil {
		t.Errorf("good flags: %v", err)
	}
}
