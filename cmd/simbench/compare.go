package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"supersim/internal/bench"
)

// hostShape is the part of a report that says what it was measured on.
// A ns/op figure holds only for the core count it was measured at.
type hostShape struct {
	CPUs int `json:"cpus"`
	// GOMAXPROCS is 0 in reports written before it was recorded.
	GOMAXPROCS int `json:"gomaxprocs"`
}

func (h hostShape) String() string {
	procs := "unrecorded"
	if h.GOMAXPROCS > 0 {
		procs = strconv.Itoa(h.GOMAXPROCS)
	}
	return fmt.Sprintf("cpus=%d gomaxprocs=%s", h.CPUs, procs)
}

// baseline is a previous report reduced to what the gate reads.
type baseline struct {
	host    hostShape
	nsPerOp map[string]float64
}

// compareOutcome is the result of gating one run against a baseline
// file: the per-benchmark comparison block for the JSON report, plus
// the counts the exit status and the end-of-run summary are built from.
type compareOutcome struct {
	Comparison []comparison
	// Regressions counts benchmarks whose DeltaPct exceeds the gate
	// (check <= 0 disables the gate and leaves this zero).
	Regressions int
	// MissingNames lists benchmarks absent from the baseline file, in
	// run order. They are recorded in Comparison with BaselineMissing
	// set but never gated: the first run after adding a benchmark
	// records its number instead of failing.
	MissingNames []string
}

// compareAgainstBaseline compares every result against the baseline's
// ns/op, writing one human-readable line per benchmark to w. A baseline
// measured on a different host shape than run gets one loud warning line
// first; the gate still applies.
func compareAgainstBaseline(results []bench.MicroResult, base baseline, run hostShape, check float64, w io.Writer) compareOutcome {
	if base.host != run {
		fmt.Fprintf(w, "simbench: WARNING host mismatch: baseline measured at %v, this run at %v; the deltas below compare different hosts\n",
			base.host, run)
	}
	var out compareOutcome
	for _, r := range results {
		b, ok := base.nsPerOp[r.Name]
		if !ok {
			out.Comparison = append(out.Comparison, comparison{
				Name: r.Name, CurrentNsPerOp: r.NsPerOp, BaselineMissing: true,
			})
			out.MissingNames = append(out.MissingNames, r.Name)
			fmt.Fprintf(w, "%-28s   baseline missing -> %10.1f ns/op  (new benchmark)\n", r.Name, r.NsPerOp)
			continue
		}
		delta := (r.NsPerOp - b) / b * 100
		out.Comparison = append(out.Comparison, comparison{
			Name: r.Name, BaselineNsPerOp: b, CurrentNsPerOp: r.NsPerOp, DeltaPct: delta,
		})
		fmt.Fprintf(w, "%-28s %10.1f -> %10.1f ns/op  (%+.1f%%)\n", r.Name, b, r.NsPerOp, delta)
		if check > 0 && delta > check {
			out.Regressions++
		}
	}
	return out
}

// summarizeMissing writes the end-of-run tally of benchmarks the
// baseline file does not know about, so a stale baseline is visible in
// one line instead of being scattered through the per-benchmark output.
// No-op when nothing is missing.
func (o compareOutcome) summarizeMissing(w io.Writer, baselinePath string) {
	if len(o.MissingNames) == 0 {
		return
	}
	fmt.Fprintf(w, "simbench: %d benchmark(s) missing from baseline %s (recorded, not gated): %s\n",
		len(o.MissingNames), baselinePath, strings.Join(o.MissingNames, ", "))
}
