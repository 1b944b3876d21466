// Package cli is the one way a command under cmd/ turns the error of its
// run(args, stdout, stderr) function into a process exit: 0 on success or
// -h, 2 for a bad invocation, 1 for any other failure. A command's main is
// one line, and its tests call run directly and check ExitCode.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// usageError marks a bad invocation: an unknown flag or argument, or flags
// that cannot be combined.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// Usagef returns an error that marks a bad invocation, with a formatted
// message.
func Usagef(format string, a ...any) error {
	return usageError{fmt.Errorf(format, a...)}
}

// Parse parses args into fs, which must use flag.ContinueOnError, and
// reports a malformed command line as a usageError.
func Parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return usageError{err}
}

// ExitCode maps run's error to the process exit code.
func ExitCode(err error) int {
	var u usageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &u):
		return 2
	}
	return 1
}

// Main runs run on the process's arguments and standard streams, reports
// its error on stderr as "name: error", and exits with ExitCode.
func Main(name string, run func(args []string, stdout, stderr io.Writer) error) {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	}
	os.Exit(ExitCode(err))
}
