package bench

import (
	"fmt"
	"io"
	"slices"
	"text/tabwriter"
)

// Spread is the distance between the first and third quartile as a share of
// the median, with quartiles as Python's statistics.quantiles(v, n=4)
// computes them — the figure the benchmark driver checks against a bound.
// Fewer than two values have no spread.
func Spread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return div(q(3)-q(1), Median(s))
}

// Verdicts of one compared (workload, metric) pair.
const (
	VerdictOK         = "ok"
	VerdictWorse      = "worse"
	VerdictUnresolved = "unresolved"
)

// Compare applies each end-to-end metric's bound to the medians of two
// result files and prints one row per (workload, metric). A pair whose own
// run-to-run spread exceeds the bound is unresolved, not unchanged. It
// reports whether any pair is worse.
func Compare(out io.Writer, a, b File, defs []MetricDef) (worse bool) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tb/a\tbound\tspread\tverdict\t")
	for _, wa := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(w WorkloadRuns) bool { return w.Workload == wa.Workload })
		if i < 0 {
			continue
		}
		wb := b.Workloads[i]
		for _, d := range defs {
			va, vb := wa.Values(d.Name), wb.Values(d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := Median(va), Median(vb)
			worsening := div(mb-ma, ma)
			if d.Better == higher {
				worsening = div(ma-mb, ma)
			}
			spread := max(Spread(va), Spread(vb))
			verdict := VerdictOK
			switch {
			case spread > d.Bound:
				verdict = VerdictUnresolved
			case worsening > d.Bound:
				verdict = VerdictWorse
				worse = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.3f\t%.2f\t%.3f\t%s\t\n",
				wa.Workload, d.Name, ma, mb, div(mb, ma), d.Bound, spread, verdict)
		}
	}
	_ = tw.Flush()
	return worse
}
