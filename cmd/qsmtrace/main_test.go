package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
)

// invoke runs qsmtrace in process and returns its stdout, stderr and exit
// code.
func invoke(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = cli.ExitCode(run(args, &out, &errb))
	return out.String(), errb.String(), code
}

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSummaryAndCSV pins every algorithm's stderr summary (and -profile
// table) to what the former qsmsim command printed at the same flags, and
// the sort and rank timelines to the CSV qsmtrace printed before it took
// qsmsim's flags over. Profiling records the run without changing it, so
// the CSV with -profile equals the CSV without.
func TestSummaryAndCSV(t *testing.T) {
	for _, alg := range []string{"prefix", "sort", "rank", "wyllie", "kselect", "matmul"} {
		t.Run(alg, func(t *testing.T) {
			args := []string{"-alg", alg, "-n", "4096", "-p", "4"}
			csv, summary, code := invoke(t, args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, summary)
			}
			if want := golden(t, "qsmsim_"+alg+".txt"); summary != want {
				t.Errorf("stderr:\n%s\nwant:\n%s", summary, want)
			}
			if alg == "sort" || alg == "rank" {
				if want := golden(t, alg+".csv"); csv != want {
					t.Errorf("CSV differs from testdata/%s.csv", alg)
				}
			}
			pcsv, psummary, code := invoke(t, append(args, "-profile")...)
			if code != 0 {
				t.Fatalf("-profile: exit %d: %s", code, psummary)
			}
			if want := golden(t, "qsmsim_"+alg+"_profile.txt"); psummary != want {
				t.Errorf("-profile stderr:\n%s\nwant:\n%s", psummary, want)
			}
			if pcsv != csv {
				t.Error("-profile changed the CSV timeline")
			}
		})
	}
}

// TestMachineFlags pins a run at non-default -g, -l, -o and -tree.
func TestMachineFlags(t *testing.T) {
	_, summary, code := invoke(t, "-alg", "sort", "-n", "4096", "-p", "4",
		"-g", "6", "-l", "3200", "-o", "200", "-tree")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, summary)
	}
	if want := golden(t, "qsmsim_sort_net.txt"); summary != want {
		t.Errorf("stderr:\n%s\nwant:\n%s", summary, want)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-alg", "bogo"},
		{"-p", "0"},
		{"-alg", "kselect", "-n", "0"},
		{"-no-such-flag"},
		{"-inspect"},
	} {
		if _, stderr, code := invoke(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, stderr)
		}
	}
}

// TestTraceAndInspect writes a trace, validates it with -inspect (exit 0),
// and checks that a broken or missing trace file fails it (exit 1).
func TestTraceAndInspect(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "prefix.json")
	csv, stderr, code := invoke(t, "-alg", "prefix", "-n", "4096", "-p", "4", "-trace", trace)
	if code != 0 || !strings.HasPrefix(stderr, "qsmtrace: wrote "+trace) {
		t.Fatalf("-trace: exit %d, stderr %q", code, stderr)
	}
	if want, _, _ := invoke(t, "-alg", "prefix", "-n", "4096", "-p", "4"); csv != want {
		t.Error("-trace changed the CSV timeline")
	}

	out, stderr, code := invoke(t, "-inspect", trace)
	if code != 0 || !strings.HasPrefix(out, trace+": ok: ") {
		t.Fatalf("-inspect good trace: exit %d, stdout %q, stderr %q", code, out, stderr)
	}

	broken := filepath.Join(dir, "broken.json")
	if err := os.WriteFile(broken, []byte(`{"traceEvents": [{"ph": "X"`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{broken, filepath.Join(dir, "missing.json")} {
		out, stderr, code := invoke(t, "-inspect", trace, bad)
		if code != 1 || !strings.Contains(stderr, bad) || !strings.HasPrefix(out, trace+": ok: ") {
			t.Errorf("-inspect %s: exit %d, stdout %q, stderr %q; want exit 1 naming it", bad, code, out, stderr)
		}
	}
}
