package main

import (
	"fmt"
	"io"
)

// compareFiles prints, for every workload both files ran untraced and
// every end-to-end metric, b's value as a ratio of a's (the base), the
// metric's bound, and a verdict: ok, regressed (worse than the bound),
// or unresolved (worse than the bound, but the spread between either
// run's own rounds is wider than the bound, so the runs cannot tell).
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-13s %-26s %14s %14s %7s %6s %7s  %s\n",
		"workload", "metric", "a (base)", "b", "b/a", "bound", "spread", "verdict")
	for _, ra := range a.Runs {
		if ra.Trace != 0 {
			continue
		}
		for _, rb := range b.Runs {
			if rb.Trace != 0 || rb.Workload != ra.Workload {
				continue
			}
			for _, m := range endToEnd {
				ma, mb := ra.Metrics[m.name], rb.Metrics[m.name]
				if ma == nil || mb == nil || ma.Value == 0 {
					continue
				}
				r := mb.Value / ma.Value
				worse := r - 1
				if m.better == "higher" {
					worse = 1 - r
				}
				spread := max(spreadOf(ma), spreadOf(mb))
				verdict := "ok"
				switch {
				case worse > m.bound && spread > m.bound:
					verdict = "unresolved"
				case worse > m.bound:
					verdict = "regressed"
					regressed = true
				}
				fmt.Fprintf(w, "%-13s %-26s %14.6g %14.6g %7.3f %5.0f%% %6.1f%%  %s\n",
					ra.Workload, m.name, ma.Value, mb.Value, r, m.bound*100, spread*100, verdict)
			}
			if ra.Failed != 0 || rb.Failed != 0 {
				fmt.Fprintf(w, "%-13s %-26s %14d %14d %7s %6s %7s  regressed\n", ra.Workload, "failed", ra.Failed, rb.Failed, "", "any", "")
				regressed = true
			}
		}
	}
	return regressed, nil
}

// spreadOf is the interquartile distance of a metric's samples as a
// share of its value; 0 for a metric measured once.
func spreadOf(m *measured) float64 {
	if len(m.Samples) < 2 || m.Value == 0 {
		return 0
	}
	return (m.Q3 - m.Q1) / m.Value
}
