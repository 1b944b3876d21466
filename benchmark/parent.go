package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// parent runs workloads in fresh child processes of this binary, one at a
// time, so peak_rss_mb is the child's own and no workload inherits another's
// heap or competes with it for the two cores.
type parent struct {
	seed    int64
	seconds int
	quick   bool
	out     string
}

// child re-executes this binary for one workload and parses the result line.
// If the parent is interrupted the child is too, and is given time to drain
// its schedulers and remove its store directories before it is killed.
func (p parent) child(ctx context.Context, w workload, seed int64, traced bool) (runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return runResult{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(p.seconds), "-trace", trace, "-out", p.out}
	if p.quick {
		args = append(args, "-quick")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	cmd.WaitDelay = 30 * time.Second
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", w.name, runErr)
		}
		return res, fmt.Errorf("%s: no result line: %w", w.name, err)
	}
	if runErr != nil || !res.Correct {
		return res, fmt.Errorf("%s: %d of %d units failed (%v)", w.name, res.Failed, res.Attempted, runErr)
	}
	return res, nil
}

// timedRuns makes `runs` timed runs of every workload, interleaved (all six
// once, then all six again) so a slow period of the host spreads over the
// workloads and over the sets a self-check compares. Run r uses seed+r.
func (p parent) timedRuns(ctx context.Context, runs int) (map[string][]runResult, error) {
	all := map[string][]runResult{}
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			res, err := p.child(ctx, w, p.seed+int64(r), false)
			if err != nil {
				return nil, err
			}
			all[w.name] = append(all[w.name], res)
		}
	}
	return all, nil
}

func values(rs []runResult, metric string) []float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, r.Metrics[metric].Value)
	}
	return xs
}

// runAll is the default mode: the timed runs, then one traced run per
// workload, printed as two tables.
func (p parent) runAll(ctx context.Context, repeat int) error {
	timed, err := p.timedRuns(ctx, repeat)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tattempted\tfailed")
	for _, d := range endToEnd {
		fmt.Fprintf(tw, "\t%s [%s]", d.Name, d.Unit)
	}
	fmt.Fprintln(tw)
	for _, w := range workloads {
		rs := timed[w.name]
		fmt.Fprintf(tw, "%s\t%d\t%d", w.name, rs[0].Attempted, rs[0].Failed)
		for _, d := range endToEnd {
			fmt.Fprintf(tw, "\t%.4g", median(values(rs, d.Name)))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	if repeat > 1 {
		fmt.Printf("(medians of %d runs, seeds %d..%d)\n", repeat, p.seed, p.seed+int64(repeat)-1)
	}

	layers := map[string]runResult{}
	for _, w := range workloads {
		if layers[w.name], err = p.child(ctx, w, p.seed, true); err != nil {
			return err
		}
	}
	fmt.Println()
	tw = tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "per-layer metric [unit]")
	for _, w := range workloads {
		fmt.Fprintf(tw, "\t%s", w.name)
	}
	fmt.Fprintln(tw)
	for _, d := range perLayer {
		fmt.Fprintf(tw, "%s [%s]", d.Name, d.Unit)
		for _, w := range workloads {
			fmt.Fprintf(tw, "\t%.4g", layers[w.name].Metrics[d.Name].Value)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Printf("traces and per-layer JSON under %s\n", p.out)
	return nil
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(xs, n=4) gives them (exclusive method), which is what
// the pipeline that judges this benchmark computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(pos float64) float64 { // 1-based fractional rank
		pos = math.Min(math.Max(pos, 1), float64(len(s)))
		lo := int(pos)
		if lo == len(s) {
			return s[lo-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	n := float64(len(s) + 1)
	return at(n / 4), at(3 * n / 4)
}

// worsening is how much worse b is than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfcheck runs ten timed runs of every workload, seeds seed..seed+9, as two
// interleaved sets of five (even runs, odd runs), and compares the sets'
// medians metric by metric against the bound; it also reports the spread of
// all ten (interquartile range over median), which must stay within the
// bound too for every metric but setup_s.
func (p parent) selfcheck(ctx context.Context) error {
	all, err := p.timedRuns(ctx, 10)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tset A median\tset B median\tdifference\tQ1\tQ3\tspread\tbound\t")
	bad := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			xs := values(all[w.name], d.Name)
			var a, b []float64
			for i, x := range xs {
				if i%2 == 0 {
					a = append(a, x)
				} else {
					b = append(b, x)
				}
			}
			ma, mb := median(a), median(b)
			diff := math.Abs(worsening(ma, mb, d.Better))
			q1, q3 := quartiles(xs)
			spread := (q3 - q1) / median(xs)
			verdict := ""
			if diff > d.Bound || (spread > d.Bound && d.Name != "setup_s") {
				verdict = "MISS"
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.1f%%\t%.4g\t%.4g\t%.1f%%\t%.0f%%\t%s\n",
				w.name, d.Name, ma, mb, 100*diff, q1, q3, 100*spread, 100*d.Bound, verdict)
		}
	}
	tw.Flush()
	fmt.Println("\nevery run, in order (set A is runs 1, 3, ...):")
	for _, w := range workloads {
		for _, d := range endToEnd {
			fmt.Printf("%s %s:", w.name, d.Name)
			for _, x := range values(all[w.name], d.Name) {
				fmt.Printf(" %.4g", x)
			}
			fmt.Println()
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d workload x metric pairs outside their bound", bad, len(workloads)*len(endToEnd))
	}
	return nil
}
