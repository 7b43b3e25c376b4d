package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// report reads result files and prints, per workload and trace mode, each
// metric's median and quartiles with the interquartile range as a share of
// the median — the run-to-run spread a bound must exceed.
func report(w io.Writer, paths []string) error {
	if len(paths) == 0 {
		return errors.New("usage: perfbench report RESULT.json...")
	}
	type group struct {
		seeds  []int64
		values map[string][]float64
		units  map[string]string
		bad    int
	}
	groups := map[string]*group{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		key := rf.Workload
		if rf.Trace {
			key += " (traced)"
		}
		g := groups[key]
		if g == nil {
			g = &group{values: map[string][]float64{}, units: map[string]string{}}
			groups[key] = g
		}
		g.seeds = append(g.seeds, rf.Seed)
		if !rf.Result.Correct {
			g.bad++
		}
		for name, m := range rf.Result.Metrics {
			g.values[name] = append(g.values[name], m.Value)
			g.units[name] = m.Unit
		}
	}
	for _, key := range sortedKeys(groups) {
		g := groups[key]
		sort.Slice(g.seeds, func(i, j int) bool { return g.seeds[i] < g.seeds[j] })
		fmt.Fprintf(w, "%s: %d runs, seeds %v, %d incorrect\n", key, len(g.seeds), g.seeds, g.bad)
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "metric\tunit\tmedian\tq1\tq3\tiqr/median\t")
		for _, name := range sortedKeys(g.values) {
			v := g.values[name]
			q1, med, q3 := quartiles(v)
			spread := "-"
			if med != 0 {
				spread = fmt.Sprintf("%.3f", (q3-q1)/med)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%s\t\n", name, g.units[name], med, q1, q3, spread)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile by the
// exclusive method (Python's statistics.quantiles(values, n=4) default).
func quartiles(v []float64) (q1, med, q3 float64) {
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return c[0], c[0], c[0]
	}
	at := func(p float64) float64 {
		// Position (n+1)p, 1-based, interpolated and clamped to the ends.
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			return c[0]
		}
		if j >= n {
			return c[n-1]
		}
		return c[j-1] + (pos-float64(j))*(c[j]-c[j-1])
	}
	return at(0.25), median(c), at(0.75)
}
