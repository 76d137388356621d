package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// compareMain prints the metric-by-metric change between two result files
// written by runs of the same workload. It refuses results taken on
// machines with different core counts or GOMAXPROCS.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	var res [2]result
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &res[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", path, err)
			return 2
		}
	}
	if err := comparable(res[0], res[1]); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: refusing: %v\n", err)
		return 2
	}
	fmt.Printf("workload %s, host %s\n", res[0].Workload, res[0].Host)
	names := make([]string, 0, len(res[1].Line.Metrics))
	for n := range res[1].Line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("  %-34s %14s %14s %9s\n", "metric", "old", "new", "change")
	for _, n := range names {
		old, ok := res[0].Line.Metrics[n]
		cur := res[1].Line.Metrics[n]
		if !ok {
			fmt.Printf("  %-34s %14s %14.4f %9s %s\n", n, "-", cur.Value, "", cur.Unit)
			continue
		}
		change := "n/a"
		if old.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(cur.Value-old.Value)/old.Value)
		}
		fmt.Printf("  %-34s %14.4f %14.4f %9s %s\n", n, old.Value, cur.Value, change, cur.Unit)
	}
	return 0
}

// comparable reports why two results must not be compared, or nil.
func comparable(a, b result) error {
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("different workloads or modes (%s trace=%v vs %s trace=%v)", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	return sameShape(a.Host, b.Host)
}
