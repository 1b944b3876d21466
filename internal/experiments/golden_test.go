package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden tables")

// goldenDrivers are the drivers whose tables are a pure function of
// (id, Options): everything registered except "engine" and "runner", whose
// tables report wall-clock measurements.
var goldenDrivers = []string{"ext1", "ext2", "ext3", "ext4", "fig1", "fig2", "fig3",
	"fig4", "fig5", "fig6", "fig7", "table2", "table3", "table4"}

// TestGoldenTables pins the rendered tables across PRs, not just across the
// modes of one build: every deterministic driver in quick mode (Runs 2,
// seed 1), plus the full-size fig2 and fig3 sweeps at Runs 1, compared byte
// for byte with testdata/golden/<name>.txt. A diff means the simulation
// itself changed — host-side optimisations must leave these files alone.
// Regenerate deliberately with -update.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps in -short mode")
	}
	type golden struct {
		name, id string
		opt      Options
	}
	var cases []golden
	for _, id := range goldenDrivers {
		cases = append(cases, golden{id, id, Options{Seed: 1, Runs: 2, Quick: true}})
	}
	cases = append(cases,
		golden{"fig2-full", "fig2", Options{Seed: 1, Runs: 1}},
		golden{"fig3-full", "fig3", Options{Seed: 1, Runs: 1}})
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			r, err := Run(c.id, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			got := r.String()
			path := filepath.Join("testdata", "golden", c.name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s tables diverged from %s\ngolden: %s\ngot:    %s", c.name, path,
					firstDiffLine(string(want), got), firstDiffLine(got, string(want)))
			}
		})
	}
}

// firstDiffLine returns the first line of a that differs from b, with its
// index, for readable failure output.
func firstDiffLine(a, b string) string {
	la, lb := []byte(a), []byte(b)
	line, col := 1, 0
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			break
		}
		if la[i] == '\n' {
			line++
			col = i + 1
		}
	}
	end := col
	for end < len(la) && la[end] != '\n' {
		end++
	}
	return fmt.Sprintf("line %d: %q", line, string(la[col:end]))
}
