package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"supersim/internal/bench"
)

func TestCompareAgainstBaseline(t *testing.T) {
	results := []bench.MicroResult{
		{Name: "Insert", NsPerOp: 120},  // +20% over baseline: regression
		{Name: "Churn", NsPerOp: 95},    // -5%: improvement
		{Name: "Replay4", NsPerOp: 50},  // not in baseline
		{Name: "Replay8", NsPerOp: 60},  // not in baseline
		{Name: "SimTask", NsPerOp: 105}, // +5%: within the gate
	}
	host := hostShape{CPUs: 2, GOMAXPROCS: 2}
	base := baseline{host: host, nsPerOp: map[string]float64{"Insert": 100, "Churn": 100, "SimTask": 100}}

	var buf bytes.Buffer
	out := compareAgainstBaseline(results, base, host, 10, &buf)

	if out.Regressions != 1 {
		t.Errorf("Regressions = %d, want 1 (only Insert exceeds the 10%% gate)", out.Regressions)
	}
	if want := []string{"Replay4", "Replay8"}; strings.Join(out.MissingNames, ",") != strings.Join(want, ",") {
		t.Errorf("MissingNames = %v, want %v", out.MissingNames, want)
	}
	if len(out.Comparison) != len(results) {
		t.Fatalf("Comparison has %d entries, want %d (missing baselines are still recorded)",
			len(out.Comparison), len(results))
	}
	for _, c := range out.Comparison {
		missing := c.Name == "Replay4" || c.Name == "Replay8"
		if c.BaselineMissing != missing {
			t.Errorf("%s: BaselineMissing = %v, want %v", c.Name, c.BaselineMissing, missing)
		}
	}
	if d := out.Comparison[0].DeltaPct; math.Abs(d-20) > 1e-9 {
		t.Errorf("Insert DeltaPct = %v, want 20", d)
	}
	if got := buf.String(); !strings.Contains(got, "baseline missing") {
		t.Errorf("per-benchmark output lacks a 'baseline missing' line:\n%s", got)
	}
	if got := buf.String(); strings.Contains(got, "host mismatch") {
		t.Errorf("same-host comparison warned of a host mismatch:\n%s", got)
	}
}

// TestCompareAgainstBaselineHostMismatch: a baseline from another host
// shape (here a 1-core file that predates the gomaxprocs field) gets one
// warning line naming both shapes, and the gate still counts regressions.
func TestCompareAgainstBaselineHostMismatch(t *testing.T) {
	results := []bench.MicroResult{{Name: "Insert", NsPerOp: 120}}
	base := baseline{host: hostShape{CPUs: 1}, nsPerOp: map[string]float64{"Insert": 100}}
	var buf bytes.Buffer
	out := compareAgainstBaseline(results, base, hostShape{CPUs: 2, GOMAXPROCS: 2}, 10, &buf)
	if out.Regressions != 1 {
		t.Errorf("Regressions = %d, want 1 (a host mismatch must not disable the gate)", out.Regressions)
	}
	got := buf.String()
	if n := strings.Count(got, "host mismatch"); n != 1 {
		t.Fatalf("output has %d host mismatch lines, want 1:\n%s", n, got)
	}
	for _, want := range []string{"cpus=1 gomaxprocs=unrecorded", "cpus=2 gomaxprocs=2"} {
		if !strings.Contains(got, want) {
			t.Errorf("host mismatch line lacks %q:\n%s", want, got)
		}
	}
}

func TestCompareAgainstBaselineGateDisabled(t *testing.T) {
	results := []bench.MicroResult{{Name: "Insert", NsPerOp: 500}}
	base := baseline{nsPerOp: map[string]float64{"Insert": 100}}
	out := compareAgainstBaseline(results, base, hostShape{}, 0, &bytes.Buffer{})
	if out.Regressions != 0 {
		t.Errorf("Regressions = %d with check=0, want 0 (gate disabled)", out.Regressions)
	}
}

func TestSummarizeMissing(t *testing.T) {
	out := compareOutcome{MissingNames: []string{"Replay4", "Replay8"}}
	var buf bytes.Buffer
	out.summarizeMissing(&buf, "BENCH_simbench.json")
	got := buf.String()
	for _, want := range []string{"2 benchmark(s) missing", "BENCH_simbench.json", "Replay4, Replay8", "not gated"} {
		if !strings.Contains(got, want) {
			t.Errorf("summary %q lacks %q", got, want)
		}
	}

	buf.Reset()
	compareOutcome{}.summarizeMissing(&buf, "BENCH_simbench.json")
	if buf.Len() != 0 {
		t.Errorf("summary with nothing missing should be silent, got %q", buf.String())
	}
}

func TestLoadBaseline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	rep := report{
		hostShape: hostShape{CPUs: 2, GOMAXPROCS: 2},
		Results:   []bench.MicroResult{{Name: "Insert", NsPerOp: 42.5}},
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := loadBaseline(path)
	if err != nil {
		t.Fatalf("loadBaseline: %v", err)
	}
	if base.nsPerOp["Insert"] != 42.5 {
		t.Errorf("base[Insert] = %v, want 42.5", base.nsPerOp["Insert"])
	}
	if base.host != rep.hostShape {
		t.Errorf("base host = %v, want %v", base.host, rep.hostShape)
	}

	if _, err := loadBaseline(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("loadBaseline on a missing file should error")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBaseline(bad); err == nil || !strings.Contains(err.Error(), "parse") {
		t.Errorf("loadBaseline on malformed JSON: err = %v, want parse error", err)
	}
}
